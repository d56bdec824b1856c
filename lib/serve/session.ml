open Exchange

type status =
  | Queued
  | Synthesizing
  | Running
  | Settled
  | Aborted of string
  | Expired

type t = {
  id : int;
  spec : Spec.t;
  defectors : (Party.t * Trust_sim.Harness.defection) list;
  mutable status : status;
  mutable attempts : int;
  mutable cache_hit : bool;
  mutable started_at : int;
  mutable finished_at : int;
  mutable ticks : int;
  mutable events : int;
  mutable stalled : int;
  mutable exposure_peak : int;
  mutable exposure_ticks : int;
  mutable exposure_violations : int;
}

let make ~id ?(defectors = []) spec =
  {
    id;
    spec;
    defectors;
    status = Queued;
    attempts = 0;
    cache_hit = false;
    started_at = 0;
    finished_at = 0;
    ticks = 0;
    events = 0;
    stalled = 0;
    exposure_peak = 0;
    exposure_ticks = 0;
    exposure_violations = 0;
  }

let status_label = function
  | Queued -> "queued"
  | Synthesizing -> "synthesizing"
  | Running -> "running"
  | Settled -> "settled"
  | Aborted _ -> "aborted"
  | Expired -> "expired"

let legal from into =
  match (from, into) with
  | Queued, Synthesizing -> true
  | Synthesizing, (Running | Aborted _) -> true
  | Running, (Settled | Expired | Aborted _) -> true
  | Expired, Queued -> true (* the scheduler's single retry *)
  | _, _ -> false

let transition t into =
  if not (legal t.status into) then
    invalid_arg
      (Printf.sprintf "Session.transition: session %d cannot go %s -> %s" t.id
         (status_label t.status) (status_label into));
  t.status <- into
