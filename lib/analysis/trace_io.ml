module Trace = Rtnet_core.Ddcr_trace

let via_name = function
  | Trace.Free_csma -> "free"
  | Trace.Open_attempt -> "attempt"
  | Trace.Time_tree -> "time"
  | Trace.Static_tree -> "static"
  | Trace.Bursting -> "burst"

let via_of_name = function
  | "free" -> Some Trace.Free_csma
  | "attempt" -> Some Trace.Open_attempt
  | "time" -> Some Trace.Time_tree
  | "static" -> Some Trace.Static_tree
  | "burst" -> Some Trace.Bursting
  | _ -> None

let output ?(deadline_of = fun _ -> None) oc events =
  let line fmt = Printf.fprintf oc (fmt ^^ "\n") in
  List.iter
    (fun e ->
      match e with
      | Trace.Idle_slot { time; phase } -> line "idle t=%d phase=%s" time phase
      | Trace.Collision_slot { time; phase; contenders } ->
        line "collision t=%d phase=%s contenders=%d" time phase contenders
      | Trace.Garbled_slot { time; on_wire } ->
        line "garbled t=%d on_wire=%d" time on_wire
      | Trace.Frame_sent { time; finish; source; uid; via } -> (
        match deadline_of uid with
        | Some dm ->
          line "frame t=%d finish=%d source=%d uid=%d via=%s dm=%d" time
            finish source uid (via_name via) dm
        | None ->
          line "frame t=%d finish=%d source=%d uid=%d via=%s" time finish
            source uid (via_name via))
      | Trace.Tts_begin { time; reft } -> line "tts_begin t=%d reft=%d" time reft
      | Trace.Tts_end { time; sent } -> line "tts_end t=%d sent=%b" time sent
      | Trace.Sts_begin { time; time_leaf } ->
        line "sts_begin t=%d leaf=%d" time time_leaf
      | Trace.Sts_end { time } -> line "sts_end t=%d" time
      | Trace.Crash { time; source } -> line "crash t=%d source=%d" time source
      | Trace.Rejoin { time; source } ->
        line "rejoin t=%d source=%d" time source
      | Trace.Desync { time; source } ->
        line "desync t=%d source=%d" time source
      | Trace.Resync { time; source } ->
        line "resync t=%d source=%d" time source)
    events

(* Parsing: every line is a tag followed by key=value fields. *)

let fields_of tokens =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
        Some
          ( String.sub tok 0 i,
            String.sub tok (i + 1) (String.length tok - i - 1) )
      | None -> None)
    tokens

let parse_line ~lineno line =
  let fail fmt = Printf.ksprintf (fun m -> Error m) ("line %d: " ^^ fmt) lineno in
  match
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Ok None
  | tag :: rest when String.length tag > 0 && tag.[0] = '#' ->
    ignore rest;
    Ok None
  | tag :: rest -> (
    let fields = fields_of rest in
    let str key =
      match List.assoc_opt key fields with
      | Some v -> Ok v
      | None -> fail "%s line misses field %S" tag key
    in
    let int key =
      Result.bind (str key) (fun v ->
          match int_of_string_opt v with
          | Some n -> Ok n
          | None -> fail "field %s=%S is not an integer" key v)
    in
    let ( let* ) = Result.bind in
    match tag with
    | "idle" ->
      let* time = int "t" in
      let* phase = str "phase" in
      Ok (Some (Trace.Idle_slot { time; phase }, None))
    | "collision" ->
      let* time = int "t" in
      let* phase = str "phase" in
      let* contenders = int "contenders" in
      Ok (Some (Trace.Collision_slot { time; phase; contenders }, None))
    | "garbled" ->
      let* time = int "t" in
      let* on_wire = int "on_wire" in
      Ok (Some (Trace.Garbled_slot { time; on_wire }, None))
    | "frame" ->
      let* time = int "t" in
      let* finish = int "finish" in
      let* source = int "source" in
      let* uid = int "uid" in
      let* via_s = str "via" in
      let* via =
        match via_of_name via_s with
        | Some v -> Ok v
        | None -> fail "unknown via %S" via_s
      in
      let dm =
        match List.assoc_opt "dm" fields with
        | Some v -> Option.map (fun d -> (uid, d)) (int_of_string_opt v)
        | None -> None
      in
      Ok (Some (Trace.Frame_sent { time; finish; source; uid; via }, dm))
    | "tts_begin" ->
      let* time = int "t" in
      let* reft = int "reft" in
      Ok (Some (Trace.Tts_begin { time; reft }, None))
    | "tts_end" ->
      let* time = int "t" in
      let* sent_s = str "sent" in
      let* sent =
        match bool_of_string_opt sent_s with
        | Some b -> Ok b
        | None -> fail "field sent=%S is not a boolean" sent_s
      in
      Ok (Some (Trace.Tts_end { time; sent }, None))
    | "sts_begin" ->
      let* time = int "t" in
      let* time_leaf = int "leaf" in
      Ok (Some (Trace.Sts_begin { time; time_leaf }, None))
    | "sts_end" ->
      let* time = int "t" in
      Ok (Some (Trace.Sts_end { time }, None))
    | "crash" ->
      let* time = int "t" in
      let* source = int "source" in
      Ok (Some (Trace.Crash { time; source }, None))
    | "rejoin" ->
      let* time = int "t" in
      let* source = int "source" in
      Ok (Some (Trace.Rejoin { time; source }, None))
    | "desync" ->
      let* time = int "t" in
      let* source = int "source" in
      Ok (Some (Trace.Desync { time; source }, None))
    | "resync" ->
      let* time = int "t" in
      let* source = int "source" in
      Ok (Some (Trace.Resync { time; source }, None))
    | other -> fail "unknown event tag %S" other)

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno events deadlines = function
    | [] -> Ok (List.rev events, List.rev deadlines)
    | line :: rest -> (
      match parse_line ~lineno line with
      | Error e -> Error e
      | Ok None -> go (lineno + 1) events deadlines rest
      | Ok (Some (e, dm)) ->
        go (lineno + 1) (e :: events)
          (match dm with Some d -> d :: deadlines | None -> deadlines)
          rest)
  in
  go 1 [] [] lines

let parse_file path = Rtnet_util.Io.load path parse
