(** Transferable assets: documents (or any named good) and money.

    Money amounts are integer cents to keep arithmetic exact; the paper's
    dollar figures ($10/$20/$30 in Fig. 7) are stored as 1000/2000/3000. *)

type money = int
(** Amount in cents; always non-negative in a well-formed spec. *)

type t =
  | Document of string  (** a named digital good *)
  | Money of money  (** a payment *)

val document : string -> t

val money : money -> t
(** @raise Invalid_argument on a negative amount. *)

val dollars : int -> money
(** [dollars 10] is [1000] cents. *)

val is_document : t -> bool

val amount : t -> money option
(** The payment amount, [None] for documents. *)

val value : t -> money
(** Monetary value: the amount for money, [0] for documents (a
    document's price lives in the deal that sells it, see {!Spec}). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val pp_money : Format.formatter -> money -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

module Bag : sig
  (** Multisets of assets — what a party is currently holding. Money is
      aggregated into a single balance; documents are counted. *)

  type asset = t
  type t

  val empty : t
  val add : asset -> t -> t

  val remove : asset -> t -> t option
  (** [None] when the bag lacks the asset (insufficient funds or the
      document absent). *)

  val holds : asset -> t -> bool
  val balance : t -> money
  val documents : t -> (string * int) list
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
