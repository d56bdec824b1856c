(** Actions of a distributed commerce transaction (paper §2.2, §2.5).

    The only actions that matter to the formalism are transfers between
    parties: [give]s of goods, [pay]ments, their mathematical inverses
    (compensations that return an earlier transfer to its sender) and the
    [notify] action available to trusted components. *)

type transfer = {
  source : Party.t;  (** the party the asset moves away from *)
  target : Party.t;  (** the party the asset moves to *)
  asset : Asset.t;
}
(** A directed movement of one asset. [give_{a->b}(d)] and
    [pay_{b->a}(m)] are both transfers; they differ only in the asset. *)

type t =
  | Do of transfer  (** the transfer happens *)
  | Undo of transfer
      (** [Undo tr] compensates an earlier [Do tr]: the asset returns
          from [tr.target] back to [tr.source] (give⁻¹ / pay⁻¹) *)
  | Notify of { agent : Party.t; informed : Party.t }
      (** a trusted component informs a principal that the other
          participants have fulfilled their parts (§2.5) *)

val give : Party.t -> Party.t -> string -> t
(** [give a b d] is [give_{a->b}(d)]. *)

val pay : Party.t -> Party.t -> Asset.money -> t
(** [pay b a m] is [pay_{b->a}(m)]: [b] pays [a]. *)

val transfer : Party.t -> Party.t -> Asset.t -> t
val undo : t -> t
(** Inverse of a [Do]. @raise Invalid_argument on [Undo] or [Notify]. *)

val notify : agent:Party.t -> informed:Party.t -> t

val performer : t -> Party.t
(** The party that executes the action: the source of a [Do], the
    current holder (original target) for an [Undo], the agent of a
    [Notify]. Used by the acceptability test, which constrains the
    actions {e performed by} a given party (§2.3). *)

val beneficiary : t -> Party.t
(** The party that receives something: target of a [Do], source of an
    [Undo] (it gets its asset back), the informed party of a [Notify]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Patterns}

    Acceptable states in the paper quantify over parties ("with X
    ranging over [{p, t1, b, t2}]", §3.1): the customer accepts the
    document from anyone so long as he paid. Patterns make that
    expressible without enumerating every instantiation. *)

module Pattern : sig
  type party_pat =
    | Exactly of Party.t
    | Any_party
    | Any_trusted
    | Any_principal

  type asset_pat =
    | Exact_asset of Asset.t
    | Any_document
    | Money_at_least of Asset.money
    | Any_asset

  type action = t

  type t =
    | P_do of party_pat * party_pat * asset_pat
    | P_undo of party_pat * party_pat * asset_pat
    | P_notify of party_pat * party_pat

  val of_action : action -> t
  (** The pattern matching exactly that action. *)

  val matches : t -> action -> bool
  val pp : Format.formatter -> t -> unit
end
