(** Place/transition Petri nets (paper §7.4).

    The paper relates exchange feasibility to coverability of a Petri
    net and leaves the encoding open. This is a small general net
    library — places, weighted arcs, markings, firing — used by
    {!Encode} as the independent baseline for the feasibility verdict
    and by the evaluation to demonstrate the cost gap between generic
    net exploration and the paper's reduction algorithm. *)

type place = int
type transition = int

type t

val create : unit -> t
val add_place : ?name:string -> t -> place
val add_transition : ?name:string -> t -> pre:(place * int) list -> post:(place * int) list -> transition
(** [pre]/[post] are (place, weight) multisets; a place appearing in both
    acts as a read arc. @raise Invalid_argument on non-positive weights
    or unknown places. *)

val place_count : t -> int
val transition_count : t -> int
val place_name : t -> place -> string
val transition_name : t -> transition -> string
val pre : t -> transition -> (place * int) list
val post : t -> transition -> (place * int) list

module Marking : sig
  type net = t
  type t
  (** A token count per place. Immutable. *)

  val initial : net -> (place * int) list -> t
  val tokens : t -> place -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val covers : t -> t -> bool
  (** [covers m target]: [m] has at least the target's tokens everywhere. *)

  val to_array : t -> int array
  (** Token counts indexed by place; a fresh copy. Used by analyses that
      manipulate markings arithmetically (Karp–Miller ω-abstraction). *)
end

val enabled : t -> Marking.t -> transition -> bool
val fire : t -> Marking.t -> transition -> Marking.t
(** @raise Invalid_argument when not enabled. *)

val enabled_transitions : t -> Marking.t -> transition list
