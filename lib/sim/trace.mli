(** Trace analysis over simulation logs.

    The §8 discussion prices mistrust in messages; an equally telling
    price is {e exposure}: how much value a party has surrendered
    without yet having received what it was promised, tick by tick. A
    protective protocol keeps honest exposure covered by an escrow or an
    indemnity at all times; these analyses make that visible and
    measurable. *)

open Exchange

type t
(** An analysed trace. *)

val of_result : Spec.t -> Engine.result -> t

val log : t -> Engine.delivery list

(** {1 Local views} *)

val view_of : t -> Party.t -> Engine.delivery list
(** The deliveries the party observes locally: those it performed, those
    it benefits from. This is what a distributed participant actually
    sees (§9). *)

val performed_by : t -> Party.t -> Action.t list

(** {1 Exposure} *)

val price_for : Spec.t -> Party.t -> Asset.t -> Asset.money
(** What an asset is worth to a party: money at face value; a document
    at what the party pays for it in the spec (its cost basis) or,
    failing that, what it is paid for it; [0] when the party never
    trades it. Re-exports {!Trust_core.Compile.price_for}. *)

type exposure = {
  at : int;  (** tick *)
  outlay : Asset.money;  (** money surrendered and not yet returned *)
  goods_out : int;  (** documents surrendered and not yet returned *)
  covered : Asset.money;
      (** money value already received back against the outlay:
          deliveries, refunds, payouts *)
}

val exposure_profile : t -> Party.t -> exposure list
(** One sample per tick at which the party's position changed,
    chronological. [outlay] counts every asset the party sent ([Do]
    performed by it) minus returns ([Undo] of those transfers);
    [covered] counts money and priced documents it received. Documents
    are priced at what the party pays for them in the spec ([0] when it
    never buys them). *)

val peak_exposure : t -> Party.t -> Asset.money
(** Maximum over the profile of [max 0 (outlay - covered)] — the worst
    uncovered position the party was ever in. Zero for a party that
    never risked anything uncompensated. *)

val total_peak_exposure : t -> Asset.money
(** Sum of principals' peak exposures: a one-number risk cost of the
    whole protocol run, comparable across trust regimes. *)

val duration : t -> int
(** Tick of the last delivery ([0] for an empty log). *)
