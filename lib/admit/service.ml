type config = {
  sv_chunk : int;
  sv_capacity : int;
  sv_high : int;
  sv_low : int;
  sv_selfcheck_every : int;
  sv_snapshot_every : int;
}

let default =
  {
    sv_chunk = 1;
    sv_capacity = 1024;
    sv_high = 768;
    sv_low = 256;
    sv_selfcheck_every = 64;
    sv_snapshot_every = 512;
  }

let validate c =
  if c.sv_chunk < 1 then Error "chunk < 1"
  else if c.sv_capacity < 1 then Error "capacity < 1"
  else if c.sv_high < 1 || c.sv_high > c.sv_capacity then
    Error "high watermark outside [1, capacity]"
  else if c.sv_low < 0 || c.sv_low >= c.sv_high then
    Error "low watermark outside [0, high)"
  else if c.sv_selfcheck_every < 0 then Error "selfcheck_every < 0"
  else if c.sv_snapshot_every < 0 then Error "snapshot_every < 0"
  else Ok ()

type summary = {
  sm_processed : int;
  sm_accepted : int;
  sm_rejected : (string * int) list;
  sm_degraded : int;
  sm_restored : int;
  sm_selfchecks : int;
  sm_mismatch : string option;
  sm_flows : int;
}

(* The arrival model is deterministic in the absolute request index:
   requests land in back-to-back chunks of [sv_chunk], and within a
   chunk the backlog at position [pos] is the [n - pos] requests not
   yet decided.  Everything the overload logic consults — chunk
   boundary, chunk size, backlog — is therefore a pure function of the
   sequence number, which is what makes [--resume] reproduce the exact
   same shed/degrade pattern a crashed run would have produced. *)

let run ?log ?journal ?snapshot config engine ~start requests =
  let total = start + List.length requests in
  let chunk = config.sv_chunk in
  let accepted = ref 0 in
  let rejected = Hashtbl.create 7 in
  let degraded_on = ref 0 in
  let degraded_off = ref 0 in
  let selfchecks = ref 0 in
  let mismatch = ref None in
  let was_degraded = ref false in
  let count_reject code =
    Hashtbl.replace rejected code (1 + Option.value ~default:0 (Hashtbl.find_opt rejected code))
  in
  List.iteri
    (fun i req ->
      let seq = start + i in
      let chunk_start = seq / chunk * chunk in
      let n = min chunk (total - chunk_start) in
      let pos = seq - chunk_start in
      let backlog = n - pos in
      let degraded = n >= config.sv_high && backlog > config.sv_low in
      if degraded && not !was_degraded then incr degraded_on
      else if (not degraded) && !was_degraded then incr degraded_off;
      was_degraded := degraded;
      let shed_all = pos >= config.sv_capacity in
      let shed_load =
        degraded && match req with Request.Remove _ -> false | _ -> true
      in
      let decision =
        if shed_all || shed_load then
          Engine.Rejected (Engine.Overloaded { retry_after = backlog })
        else Engine.decide engine req
      in
      (match decision with
      | Engine.Accepted _ -> incr accepted
      | Engine.Rejected _ -> count_reject (Engine.decision_code decision));
      let record =
        { Journal.jr_seq = seq; jr_request = req; jr_decision = decision }
      in
      Option.iter (fun j -> j record) journal;
      Option.iter
        (fun oc ->
          output_string oc (Journal.record_line record);
          output_char oc '\n')
        log;
      let check =
        config.sv_selfcheck_every > 0
        && (seq + 1) mod config.sv_selfcheck_every = 0
      in
      if check then begin
        incr selfchecks;
        match Engine.selfcheck engine with
        | Ok () -> ()
        | Error e ->
          if !mismatch = None then
            mismatch := Some (Printf.sprintf "after decision %d: %s" seq e)
      end;
      if config.sv_snapshot_every > 0 && (seq + 1) mod config.sv_snapshot_every = 0
      then
        Option.iter
          (fun s -> s ~seq:(seq + 1) (Engine.snapshot engine))
          snapshot)
    requests;
  Option.iter flush log;
  (* Leaving the run while degraded closes the episode, so Degraded /
     Restored counts pair up in the summary. *)
  if !was_degraded then incr degraded_off;
  {
    sm_processed = List.length requests;
    sm_accepted = !accepted;
    sm_rejected =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rejected []);
    sm_degraded = !degraded_on;
    sm_restored = !degraded_off;
    sm_selfchecks = !selfchecks;
    sm_mismatch = !mismatch;
    sm_flows = Engine.size engine;
  }
