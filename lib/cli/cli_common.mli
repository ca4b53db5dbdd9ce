(** What the rtnet tools share: the one path from an input error to
    exit 2, output-path checks and the command-line terms more than one
    tool reads. *)

(** {2 Commands and errors} *)

val cmd :
  Cmdliner.Cmd.info ->
  (int, string) result Cmdliner.Term.t ->
  int Cmdliner.Cmd.t
(** [cmd info term] is a command whose [term] returns its exit code or
    an input error.  [Error msg] prints one line [tool: msg] on stderr,
    [tool] being the main command's name, and exits 2: the only place an
    rtnet tool turns an error into an exit code.  Nothing in a command
    calls [exit], so a test can evaluate it in-process. *)

val horizon_of : int -> (int, string) result
(** [horizon_of ms] is the horizon in bit-times; below 1 ms there is
    nothing to simulate, an [Error]. *)

val check_out_file : flag:string -> string option -> (unit, string) result
(** [check_out_file ~flag path] is [Ok] when [path] is absent or names
    a file whose directory exists; commands check every output path
    before any work starts.  [flag] names the option in the message. *)

val check_out_dir :
  flag:string -> create:bool -> string option -> (unit, string) result
(** [check_out_dir ~flag ~create dir] is [Ok] when [dir] is absent or
    an existing directory; with [~create] a missing one is made (its
    parent must exist). *)

val load_params : string -> (Rtnet_core.Ddcr_params.t, string) result
(** [load_params path] reads a {!Rtnet_core.Ddcr_params} JSON file. *)

(** {2 Terms} *)

val scenario : Rtnet_campaign.Spec.scenario Cmdliner.Term.t
(** [-s], [-n], [--load] and [--deadline-windows]: one single-bus
    scenario, decoded by {!Rtnet_campaign.Spec.instance_result}. *)

val params :
  (Rtnet_workload.Instance.t -> Rtnet_core.Ddcr_params.t) Cmdliner.Term.t
(** [--indices], [--allocation], [--burst] and [--theta]: the default
    DDCR parameters of an instance with those changes. *)

val params_file :
  string -> (Rtnet_core.Ddcr_params.t option, string) result Cmdliner.Term.t
(** [params_file doc] is [--params FILE], loaded by {!load_params}. *)

val seed : int Cmdliner.Term.t
val horizon_ms : ?default:int -> unit -> int Cmdliner.Term.t

val jobs : default:int -> string -> int Cmdliner.Term.t
(** [-j]/[--jobs]. *)

val out_info : ?docv:string -> string -> Cmdliner.Arg.info
(** [-o]/[--out]; [out] and [out_required] read a path with it. *)

val out : string -> string option Cmdliner.Term.t
val out_required : string -> string Cmdliner.Term.t
val quiet : ?names:string list -> string -> bool Cmdliner.Term.t
val resume : string -> bool Cmdliner.Term.t
val telemetry : bool Cmdliner.Term.t
val headroom : bool Cmdliner.Term.t
val trace_out : string option Cmdliner.Term.t
val postmortem_out : string option Cmdliner.Term.t
