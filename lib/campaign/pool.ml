type timing = { worker : int; t0 : float; t1 : float }
type give_up_reason = Timed_out of float | Worker_lost of string

type 'b sevent =
  | Completed of int * timing * 'b
  | Task_error of int * timing * string
  | Gave_up of { position : int; attempts : int; reason : give_up_reason }

let default_jobs () = Domain.recommended_domain_count ()

let reason_text = function
  | Timed_out s -> Printf.sprintf "watchdog timeout after %.2f s" s
  | Worker_lost e -> "worker lost: " ^ e

(* -------------------- pipes -------------------- *)

let write_all fd b =
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

(* [read_exact fd b] fills [b]; false if the pipe ends first. *)
let read_exact fd b =
  let len = Bytes.length b in
  let rec go off =
    off = len
    || match Unix.read fd b off (len - off) with 0 -> false | r -> go (off + r)
  in
  go 0

let int_bytes i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  b

(* A reply is [8-byte little-endian length][Marshal payload].  A worker
   writes its whole frame at once, so the coordinator reads a frame in
   one go as soon as its first bytes are readable. *)
let send_frame fd v =
  let payload = Marshal.to_bytes v [] in
  write_all fd (Bytes.cat (int_bytes (Bytes.length payload)) payload)

let recv_frame fd =
  let hdr = Bytes.create 8 in
  if not (read_exact fd hdr) then None
  else
    let b = Bytes.create (Int64.to_int (Bytes.get_int64_le hdr 0)) in
    if read_exact fd b then Some (Marshal.from_bytes b 0) else None

(* -------------------- worker -------------------- *)

(* A worker reads task positions (8 bytes each) until its command pipe
   ends, and answers each with one frame.  The wall clock is read
   around [f] alone, so pipe and coordinator latency never inflate the
   timing. *)
let serve ~slot ~cmd ~res f tasks =
  let b = Bytes.create 8 in
  while read_exact cmd b do
    let pos = Int64.to_int (Bytes.get_int64_le b 0) in
    let t0 = Unix.gettimeofday () in
    let r =
      match f tasks.(pos) with
      | v -> Ok v
      | exception e -> Error (Printexc.to_string e)
    in
    send_frame res ({ worker = slot; t0; t1 = Unix.gettimeofday () }, r)
  done

(* -------------------- coordinator -------------------- *)

type worker = {
  pid : int;
  cmd : Unix.file_descr;  (** coordinator's end: task positions out *)
  res : Unix.file_descr;  (** coordinator's end: reply frames in *)
  mutable task : int;  (** in-flight position, -1 while idle *)
  mutable deadline : float;  (** watchdog for [task]; infinity if none *)
}

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

let supervise ~jobs ?watchdog_s ?(retries = 1) ?(backoff_s = 0.05)
    ?(on_retry = fun ~position:_ ~attempt:_ ~reason:_ -> ())
    ?(should_stop = fun () -> false) ~on_event f tasks =
  if jobs < 1 then invalid_arg "Pool.supervise: jobs < 1";
  let n = Array.length tasks in
  let slots = Array.make (min jobs n) None in
  let attempts = Array.make n 0 in
  (* Fresh positions go out in order; a lost attempt waits in [retry]
     until its backoff has passed and fresh work has run out. *)
  let next = ref 0 in
  let retry = ref [] in
  let emitted = ref 0 in
  let emit ev =
    incr emitted;
    on_event ev
  in
  (* A write to a worker that died while idle must surface as EPIPE,
     not kill the coordinator. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let fork_worker slot =
    flush stdout;
    flush stderr;
    let cmd_r, cmd_w = Unix.pipe () in
    let res_r, res_w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      (* Keep only this worker's own ends: a sibling's command end held
         here would keep that sibling waiting once the coordinator is
         gone.  [Unix._exit] skips the at_exit handlers and buffers
         inherited from the coordinator. *)
      Array.iter
        (Option.iter (fun w ->
             Unix.close w.cmd;
             Unix.close w.res))
        slots;
      Unix.close cmd_w;
      Unix.close res_r;
      Sys.set_signal Sys.sigpipe sigpipe;
      (match serve ~slot ~cmd:cmd_r ~res:res_w f tasks with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 2)
    | pid ->
      Unix.close cmd_r;
      Unix.close res_w;
      let w =
        { pid; cmd = cmd_w; res = res_r; task = -1; deadline = infinity }
      in
      slots.(slot) <- Some w;
      w
  in
  let retire slot w =
    slots.(slot) <- None;
    w.task <- -1;
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    Unix.close w.cmd;
    Unix.close w.res;
    reap w.pid
  in
  (* A lost attempt costs only its own position: re-enqueued after a
     linear backoff, or reported as [Gave_up] once the retry budget is
     spent.  The pool never aborts. *)
  let failed now slot w reason =
    let pos = w.task in
    retire slot w;
    let a = attempts.(pos) + 1 in
    attempts.(pos) <- a;
    if a > retries then emit (Gave_up { position = pos; attempts = a; reason })
    else begin
      on_retry ~position:pos ~attempt:a ~reason:(reason_text reason);
      retry := !retry @ [ (now +. (backoff_s *. float_of_int a), pos) ]
    end
  in
  let free_slot () =
    let rec go i =
      if i = Array.length slots then None
      else
        match slots.(i) with
        | Some w when w.task >= 0 -> go (i + 1)
        | _ -> Some i
    in
    go 0
  in
  let take_ready now =
    if !next < n then begin
      incr next;
      Some (!next - 1)
    end
    else
      match List.find_opt (fun (nb, _) -> nb <= now) !retry with
      | Some ((_, pos) as item) ->
        retry := List.filter (fun o -> o != item) !retry;
        Some pos
      | None -> None
  in
  let dispatch now slot pos =
    let w = match slots.(slot) with Some w -> w | None -> fork_worker slot in
    w.task <- pos;
    w.deadline <-
      Option.fold ~none:infinity ~some:(fun s -> now +. s) watchdog_s;
    try write_all w.cmd (int_bytes pos)
    with Unix.Unix_error (Unix.EPIPE, _, _) ->
      failed now slot w (Worker_lost "died while idle")
  in
  (* Hand ready positions to free slots.  A true [should_stop]
     dispatches nothing more; what is in flight drains. *)
  let rec launch now =
    if should_stop () then begin
      next := n;
      retry := []
    end
    else
      match free_slot () with
      | None -> ()
      | Some slot -> (
        match take_ready now with
        | None -> ()
        | Some pos ->
          dispatch now slot pos;
          launch now)
  in
  let earliest_retry () =
    List.fold_left (fun a (nb, _) -> min a nb) infinity !retry
  in
  let loop () =
    let continue = ref true in
    while !continue do
      let now = Unix.gettimeofday () in
      launch now;
      let running =
        List.filter_map
          (fun slot ->
            match slots.(slot) with
            | Some w when w.task >= 0 -> Some (slot, w)
            | _ -> None)
          (List.init (Array.length slots) Fun.id)
      in
      if running = [] && !next = n && !retry = [] then continue := false
      else if running = [] then begin
        (* Only backed-off retries remain: sleep until the earliest. *)
        let d = earliest_retry () -. Unix.gettimeofday () in
        if d > 0. then Unix.sleepf (min d 0.05) else ()
      end
      else begin
        let wake =
          List.fold_left (fun a (_, w) -> min a w.deadline) infinity running
        in
        (* Waiting retries shorten the wait only while a slot is free;
           otherwise the coordinator would poll beside busy workers. *)
        let wake =
          if free_slot () = None then wake else min wake (earliest_retry ())
        in
        let timeout =
          if wake = infinity then -1. else Float.max (wake -. now) 0.001
        in
        let readable, _, _ =
          try Unix.select (List.map (fun (_, w) -> w.res) running) [] [] timeout
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        let now = Unix.gettimeofday () in
        List.iter
          (fun (slot, w) ->
            if List.mem w.res readable then
              match recv_frame w.res with
              | None ->
                failed now slot w (Worker_lost "exited without delivering")
              | Some (timing, r) ->
                let pos = w.task in
                w.task <- -1;
                w.deadline <- infinity;
                (* The worker gets its next position before this
                   answer is reported, so it computes while the
                   coordinator runs [on_event]. *)
                launch now;
                (* An exception from the task itself is deterministic:
                   a retry would raise again, so it is not retried. *)
                emit
                  (match r with
                  | Ok v -> Completed (pos, timing, v)
                  | Error e -> Task_error (pos, timing, e)))
          running;
        List.iter
          (fun (slot, w) ->
            if w.task >= 0 && now >= w.deadline then
              failed now slot w
                (Timed_out (Option.value watchdog_s ~default:0.)))
          running
      end
    done
  in
  Fun.protect loop ~finally:(fun () ->
      Array.iteri (fun slot -> Option.iter (retire slot)) slots;
      Sys.set_signal Sys.sigpipe sigpipe);
  !emitted
