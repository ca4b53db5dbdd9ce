(** Structured diagnostics shared by every analysis pass.

    All three passes of [rtnet.analysis] — the configuration linter
    ({!Config_lint}), the trace invariant checker ({!Trace_check}) and
    the bounded exhaustive checker ({!Bounded_check}) — report their
    findings as values of this one type, so callers (the [ddcr_lint]
    CLI, the test suite, the [@lint] alias) can filter, print and turn
    them into exit codes uniformly.

    Every diagnostic cites the paper section or property it enforces
    ([paper_ref]), keeping the correspondence between the executable
    check and the correctness proof explicit. *)

type severity = Error | Warning | Info

type t = {
  rule_id : string;  (** stable machine-readable rule name, e.g. ["TRC-SAFETY"] *)
  severity : severity;
  subject : string;  (** what the diagnostic is about (class, event, shape) *)
  message : string;  (** human-readable explanation *)
  paper_ref : string;  (** paper section / property it enforces *)
}

val make :
  rule_id:string ->
  severity:severity ->
  subject:string ->
  paper_ref:string ->
  string ->
  t
(** [make ~rule_id ~severity ~subject ~paper_ref message] builds a
    diagnostic. *)

val error : rule_id:string -> subject:string -> paper_ref:string -> string -> t
(** [error ~rule_id ~subject ~paper_ref msg] is {!make} at {!Error}. *)

val warning :
  rule_id:string -> subject:string -> paper_ref:string -> string -> t
(** [warning ~rule_id ~subject ~paper_ref msg] is {!make} at {!Warning}. *)

val info : rule_id:string -> subject:string -> paper_ref:string -> string -> t
(** [info ~rule_id ~subject ~paper_ref msg] is {!make} at {!Info}. *)

val count : severity -> t list -> int
(** [count s ds] is the number of diagnostics of severity [s]. *)

val errors : t list -> t list
(** [errors ds] keeps only the {!Error} diagnostics. *)

val has_errors : t list -> bool
(** [has_errors ds] is [errors ds <> []]. *)

val exit_code : t list -> int
(** [exit_code ds] is [1] if any diagnostic is an {!Error}, else [0] —
    the CI contract of [ddcr_lint]. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt d] prints one diagnostic on one line:
    [severity \[rule_id\] subject: message (paper_ref)]. *)

val pp_report : Format.formatter -> t list -> unit
(** [pp_report fmt ds] prints every diagnostic (most severe first,
    original order within a severity) followed by a one-line tally. *)
