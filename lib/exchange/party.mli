(** Parties of a distributed commerce transaction (paper §2.1).

    Principals are independently motivated actors — consumers, producers
    and brokers. Trusted components are escrow intermediaries whose only
    available actions are forwarding, reversing and notifying (§2.5).
    A trusted component may be a {e persona}: an abstract trusted-agent
    role actually played by one of the principals when the other side
    trusts it directly (§1, §4.2.3). Personas are recorded in
    {!Spec.t}, not here. *)

type role =
  | Consumer  (** wants goods, offers payment *)
  | Producer  (** owns goods, wants payment *)
  | Broker  (** resells: buys on one side, sells on the other *)

type t =
  | Principal of string * role
  | Trusted of string  (** a trusted intermediary *)

val consumer : string -> t
val producer : string -> t
val broker : string -> t
val trusted : string -> t

val name : t -> string
val is_principal : t -> bool
val is_trusted : t -> bool

val role : t -> role option
(** [None] for trusted components. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
