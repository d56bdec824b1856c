(** Lint diagnostics: stable codes, severities, locations, renderers.

    Every finding the analyzer can produce carries a stable [TL0xx]
    code so fixtures, CI gates and editors can match on it, an optional
    source span threaded from the DSL, and free-form notes (used for
    the stuck-kernel counterexample of infeasible specs). *)

type severity = Error | Warning | Info

type code =
  | Unused_party  (** TL001: declared party referenced by nothing *)
  | Dead_asset  (** TL002: broker acquires a document it never resells *)
  | Unbacked_split  (** TL003: split edge with no indemnity backing it *)
  | Redundant_priority  (** TL004: priority that orders nothing *)
  | Contradictory_priorities
      (** TL005: two or more red edges on one conjunction pre-empt each
          other — no commitment of the bundle can go first *)
  | Unreachable_acceptance
      (** TL006: sequencing graph is stuck and no indemnity rescue
          exists — no acceptable final state is reachable *)
  | Vacuous_intermediary
      (** TL007: direct-trust persona whose removal leaves the spec
          feasible — the declared trust buys nothing *)
  | Zero_value_leg  (** TL008: a deal leg pays $0.00 *)
  | Rescuable_infeasibility
      (** TL009: stuck as written, but an indemnity rescue exists *)
  | Parse_error  (** TL010: lexer/parser failure (exit code 2) *)
  | Elaboration_error  (** TL011: name-resolution/validation failure *)
  | Unsafe_sequence
      (** TL012: the safety verifier found an exposure in a synthesized
          execution sequence (should never fire; self-check) *)
  | Double_spend
      (** TL013: the same provenance asset is promised into two or more
          concurrent deals while only one copy exists *)
  | Over_pledged_indemnity
      (** TL014: one principal's splits pledge more combined indemnity
          than its counterparties' at-risk value can ever reach *)
  | Deadline_race
      (** TL015: a deal's [within n] window is shorter than the
          synthesized escrow span — release races the expiry *)
  | Unprovable_bound
      (** TL016: the abstract interpreter cannot prove the §5
          single-transfer bound for some principal *)
  | Counterexample_schedule
      (** TL017: the maximizing interleaving refuting a bound, attached
          as an informational note alongside TL016 *)

val code_id : code -> string
(** The stable identifier, e.g. [Unused_party] → ["TL001"]. *)

val all_codes : code list

val help_uri : code -> string
(** Stable documentation link for a rule — the docs/LINT.md anchor the
    SARIF [rules\[\]] metadata points editors at. *)

type t = {
  code : code;
  severity : severity;
  message : string;
  file : string option;
  loc : Trust_lang.Loc.t option;
  notes : string list;  (** indented under the message in human output *)
}

val make :
  ?severity:severity ->
  ?file:string ->
  ?loc:Trust_lang.Loc.t ->
  ?notes:string list ->
  code ->
  string ->
  t
(** [make code message]; [severity] defaults to the code's own
    severity. *)

val sort : t list -> t list

val gating : ?werror:bool -> t -> bool
(** Does this diagnostic fail the lint? Errors always gate; warnings
    gate under [werror]; info never gates. *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: severity[TL0xx]: message] with notes indented. *)

val render_human : t list -> string
val render_json : t list -> string
(** A [{"version": 1, "diagnostics": [...]}] object; locations are
    1-based [line]/[col] fields, omitted when unknown. *)

val render_sarif : t list -> string
(** Minimal SARIF 2.1.0 log: one run, the TL rule table as
    [tool.driver.rules], one result per diagnostic. *)
