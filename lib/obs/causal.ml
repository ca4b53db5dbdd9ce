module Json = Rtnet_util.Json
module Trace_event = Rtnet_telemetry.Trace_event
module Driver = Rtnet_topology.Driver

(* The thread of bridge hand-off instants in each segment's process;
   recorder tracks use 1–3 and [10 + source]. *)
let tid_bridges = 4

let stitch ~into ~seg_pid ~chains =
  let named = Hashtbl.create 8 in
  let ensure_bridge_track pid =
    if not (Hashtbl.mem named pid) then begin
      Hashtbl.add named pid ();
      Trace_event.set_thread_name into ~pid ~tid:tid_bridges "bridges"
    end
  in
  let stitched = ref 0 in
  List.iteri
    (fun id (c : Driver.chain_record) ->
      match c.Driver.cr_hops with
      | [] | [ _ ] -> ()
      | hops ->
        incr stitched;
        let last = List.length hops - 1 in
        let name = Printf.sprintf "%s#%d" c.Driver.cr_flow c.Driver.cr_uid in
        List.iteri
          (fun i (h : Driver.hop_record) ->
            let pid = seg_pid ~segment:h.Driver.hr_segment in
            let tid = 10 + h.Driver.hr_source in
            (* Bind to the hop's frame span: any ts inside
               [hr_start, hr_finish) encloses. *)
            let ts = h.Driver.hr_start in
            if i = 0 then
              Trace_event.flow_start into ~pid ~tid ~name ~cat:"chain" ~ts ~id
                ()
            else begin
              (* The hand-off that fed this hop: an instant on the
                 downstream segment's bridge track at the hop arrival
                 (= upstream finish + bridge latency, or the drain
                 release under a crash window). *)
              ensure_bridge_track pid;
              Trace_event.instant into ~pid ~tid:tid_bridges ~name:"handoff"
                ~cat:"bridge" ~ts:h.Driver.hr_arrival
                ~args:
                  [
                    ("chain", Json.String name);
                    ("hop", Json.Int h.Driver.hr_index);
                  ]
                ();
              if i = last then
                Trace_event.flow_end into ~pid ~tid ~name ~cat:"chain" ~ts ~id
                  ()
              else
                Trace_event.flow_step into ~pid ~tid ~name ~cat:"chain" ~ts ~id
                  ()
            end)
          hops)
    chains;
  !stitched
