module Prng = Rtnet_util.Prng
module Json = Rtnet_util.Json
module Ddcr = Rtnet_core.Ddcr
module Harness = Rtnet_mac.Harness
module Oracle = Rtnet_analysis.Oracle
module Run_json = Rtnet_stats.Run_json

type report = {
  rp_verdict : Oracle.verdict;
  rp_fingerprint : string;
}

module type S = sig
  type env
  type space
  type candidate
  type atom

  val tag : string
  val version : int
  val search_label : string
  val unit : string
  val sample : env -> space -> seed:int -> index:int -> candidate

  val run :
    ?postmortem:(Rtnet_obs.Postmortem.t -> unit) ->
    env ->
    candidate ->
    (report, string) result

  val atoms : candidate -> atom list
  val with_atoms : candidate -> atom list -> candidate
  val refine : check:(candidate -> bool) -> candidate -> candidate
  val describe : candidate -> string
  val to_json : env -> candidate -> (string * Json.t) list
  val of_json : version:int -> Json.t -> (env * candidate, string) result
end

type ('e, 's, 'c) t =
  (module S with type env = 'e and type space = 's and type candidate = 'c)

let fingerprint_outcome outcome =
  Digest.to_hex (Run_json.outcome_digest outcome)

(* When the run dies in an exception there is no outcome to digest;
   fingerprint the verdict rendering instead — still a pure function
   of the candidate, so replay equality holds. *)
let fingerprint_verdict v =
  Digest.to_hex (Digest.string ("verdict:" ^ Json.to_string (Oracle.to_json v)))

let run (type e s c) ((module S) : (e, s, c) t) ?postmortem env candidate =
  let failed v = { rp_verdict = v; rp_fingerprint = fingerprint_verdict v } in
  match S.run ?postmortem env candidate with
  | Ok report -> report
  | Error msg -> failed (Oracle.Run_crash msg)
  | exception Harness.Mismatch m ->
    failed (Oracle.Harness_mismatch (Harness.mismatch_message m))
  | exception Ddcr.Protocol_violation msg ->
    failed (Oracle.Run_crash ("protocol violation: " ^ msg))
  | exception Failure msg ->
    (* The channel raises [Failure] when mutual exclusion breaks, the
       harness when a completion disagrees with the carried frames. *)
    failed (Oracle.Safety_violation msg)
  | exception Assert_failure _ ->
    failed (Oracle.Run_crash "assertion failure in the simulator")

(* Domain separation mirrors the campaign's Seeding module: the trace
   and fault seeds of candidate [i] come from disjoint derive chains of
   the root seed, and the generator's streams use their own tags — no
   coordinate ever shares a stream prefix with another. *)
let trace_seed ~seed ~index = Prng.derive (Prng.derive seed 1) index
let fault_seed ~seed ~index = Prng.derive (Prng.derive seed 2) index
