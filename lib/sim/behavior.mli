(** Agent behaviours for the discrete-event runtime.

    A behaviour reacts to local observations with actions to attempt.
    The engine owns asset custody and delivery; behaviours only decide
    {e what} to do next. All behaviours here are deterministic state
    machines over mutable internal state, constructed per run. *)

open Exchange

type observation =
  | Start  (** delivered once at time zero *)
  | Incoming of Action.t
      (** an action whose beneficiary is this agent was delivered *)
  | Expired of string
      (** a deal's own escrow deadline (§2.2) fired: the intermediary is
          no longer bound and returns what it holds for that deal *)
  | Deadline  (** the global escrow deadline fired *)

type t
(** A behaviour instance (single-run, stateful). *)

val party : t -> Party.t
val react : t -> observation -> Action.t list
(** Actions the agent attempts now, in order. *)

val make : Party.t -> (observation -> Action.t list) -> t
(** A custom behaviour from a reaction function (which may close over
    its own mutable state). Used for bespoke agents in tests and
    downstream experiments. *)

val scripted : Party.t -> Trust_core.Protocol.scripted_step list -> t
(** An honest principal following its synthesized script: it performs
    each step once its condition is met (conditions may be satisfied by
    any previously observed action, not just the latest). *)

val escrow :
  ?atomic:bool ->
  Spec.t ->
  Party.t ->
  notifies:Trust_core.Protocol.scripted_step list ->
  indemnities:Trust_core.Indemnity.offer list ->
  t
(** The trusted-component automaton (§2.5) for a non-persona trusted
    role: records incoming deal items; when both sides of a deal are in,
    forwards them (documents first); runs its notification script
    reactively; holds indemnity deposits, returning each when its
    covered deal completes. At [Deadline] it returns every item of an
    incomplete deal to its sender and settles outstanding deposits —
    forfeiting a deposit to the protected party when that party had paid
    for the covered piece and the piece never arrived (§6), returning it
    to the offerer otherwise.

    With [atomic] (default false) the agent behaves as §8's coordinating
    intermediary: nothing is forwarded until {e every} deal it mediates
    has both sides in, so a multi-deal agent keeps bundles
    all-or-nothing. Required for specs made feasible by the shared-agent
    extension ({!Trust_core.Reduce.run_shared}). *)

val coordinator : Spec.t -> Party.t -> t
(** The §8 universal intermediary as a runtime agent: every deal of the
    spec runs through it. It accepts deposits but forwards {e nothing}
    until the whole transaction is ready — every money side and every
    initially-held document side has arrived (it "checks that if all of
    the exchanges are made, then all of the constraints will be
    satisfied"). From then on it forwards each deal as it completes
    (resold documents cycle out to the reseller and back in). At
    [Deadline] anything unfinished unwinds. *)

val with_persona_duties : Spec.t -> Party.t -> t -> t
(** Wrap a principal that plays one or more trusted roles (§4.2.3) with
    the escrow duties those roles imply: it tracks what the trusting
    counterparties deposited with it, and at [Deadline] returns any
    deposit whose deal it has not completed (its own outbound transfer
    for that deal never fired). Without this, a stalled exchange leaves
    the truster's goods stranded with the persona. *)

val silent : Party.t -> t
(** An adversary that never sends anything (receives are passive). *)

val partial : Party.t -> Trust_core.Protocol.scripted_step list -> keep:int -> t
(** An adversary that follows the script for its first [keep] own
    actions and then defects silently. [partial p s ~keep:0] acts like
    {!silent}; [keep] beyond the script length acts honestly. *)
