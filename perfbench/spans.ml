(* In-memory spans for the traced run.

   Spans are recorded only here, around the benchmark's own calls into
   each layer; each has a name, a start, an end and the span that caused
   it.  They are kept in memory and written out once, when the run ends,
   in the Chrome/Perfetto "complete event" format. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = root *)
  t0 : float;
  t1 : float;
}

let spans = ref []
let next_id = ref 0
let stack = ref []

let with_span name f =
  incr next_id;
  let id = !next_id in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let t0 = Calib.now () in
  let finish () =
    let t1 = Calib.now () in
    stack := List.tl !stack;
    spans := { id; name; parent; t0; t1 } :: !spans;
    t1 -. t0
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

(* Record an already-measured interval (e.g. a slot-loop span rebuilt
   from probe timestamps) under the current span. *)
let record name ~t0 ~t1 =
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  spans := { id = !next_id; name; parent; t0; t1 } :: !spans

let write path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        s.name (s.t0 *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
