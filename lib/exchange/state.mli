(** Exchange states and acceptability (paper §2.3).

    The state of an exchange is the unordered set of actions executed so
    far. Each party holds a set of partial state descriptions; a final
    state is acceptable to that party when it contains a superset of the
    actions of some description {e and} contains no other action
    performed by that party. One description per party is marked
    preferred — the outcome the protocol should steer towards. *)

type t
(** An exchange state: a set of executed actions. The formalism treats
    states as sets (§2.3), so duplicate insertions collapse. *)

val empty : t
(** The status quo. *)

val record : Action.t -> t -> t
val of_actions : Action.t list -> t
val actions : t -> Action.t list
val mem : Action.t -> t -> bool
val cardinal : t -> int
val union : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

val performed_by : Party.t -> t -> Action.t list
(** All actions in the state whose {!Action.performer} is the party. *)

val net_assets : Party.t -> t -> Asset.Bag.t * Asset.Bag.t
(** [(gained, lost)] — assets that flowed to and away from the party over
    the recorded transfers (notifications carry nothing). An [Undo]
    counts as the reverse flow of its transfer. *)

(** {1 Acceptability} *)

type description = {
  requires : Action.Pattern.t list;
      (** the state must contain an action matching each of these *)
  permits : Action.Pattern.t list;
      (** additional own actions tolerated beyond [requires]; the
          paper's plain action-set descriptions have [permits = []] *)
}
(** One acceptable partial outcome. The paper's descriptions are sets of
    actions; patterns generalise them ("with X ranging over …", §3.1)
    without changing the containment semantics. *)

val describes : Action.Pattern.t list -> description
(** A plain paper-style description: [requires] only. *)

type acceptability = {
  descriptions : description list;  (** all acceptable outcomes *)
  preferred : description;  (** should be one of [descriptions] *)
}

val acceptable : acceptability -> party:Party.t -> t -> bool
(** [acceptable spec ~party state] per §2.3: some description [d] has all
    its [requires] patterns matched by actions of [state], and every
    action of [state] performed by [party] matches some pattern of
    [d.requires] or [d.permits]. *)

val preferred_reached : acceptability -> t -> bool
(** All [requires] patterns of the preferred description are matched. *)

val always_acceptable : acceptability
(** A party with no stake: accepts any state whatsoever. *)
