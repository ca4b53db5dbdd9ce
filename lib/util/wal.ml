type 'a loaded = { records : 'a list; torn : bool; valid_bytes : int }

let load ~path ~header ~record =
  if not (Sys.file_exists path) then
    Ok { records = []; torn = false; valid_bytes = 0 }
  else
    Io.load path (fun text ->
        let corrupt line e = Error (Printf.sprintf "line %d: %s" line e) in
        (* [pos] starts line [line]; what follows the last newline is
           the torn tail. *)
        let rec go pos line acc =
          match String.index_from_opt text pos '\n' with
          | None ->
            Ok
              {
                records = List.rev acc;
                torn = pos < String.length text;
                valid_bytes = pos;
              }
          | Some nl -> (
            match Json.parse (String.sub text pos (nl - pos)) with
            | Error e -> corrupt line e
            | Ok j when line = 1 ->
              Result.bind (header j) (fun () -> go (nl + 1) 2 acc)
            | Ok j -> (
              match record j with
              | Error e -> corrupt line e
              | Ok r -> go (nl + 1) (line + 1) (r :: acc)))
        in
        go 0 1 [])

(* The line is rendered into [buf], reused from record to record, and
   written from there: no copy of it is made. *)
type writer = { oc : out_channel; buf : Buffer.t }

let writer oc = { oc; buf = Buffer.create 512 }

let render w j =
  Buffer.clear w.buf;
  Json.to_buffer w.buf j;
  Buffer.add_char w.buf '\n'

let append w j =
  render w j;
  Buffer.output_buffer w.oc w.buf;
  flush w.oc

let append_torn w j =
  render w j;
  output_string w.oc (Buffer.sub w.buf 0 (Buffer.length w.buf / 2));
  flush w.oc

let create ~path ~header =
  match
    let w = writer (open_out_bin path) in
    append w header;
    w
  with
  | w -> Ok w
  | exception Sys_error e -> Error e

let open_append ~path ~valid_bytes =
  if valid_bytes <= 0 then
    Error (path ^ ": no intact header to append after")
  else
    match
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd valid_bytes;
      ignore (Unix.lseek fd 0 Unix.SEEK_END : int);
      fd
    with
    | fd -> Ok (writer (Unix.out_channel_of_descr fd))
    | exception Unix.Unix_error (e, _, _) ->
      Io.named path (Error (Unix.error_message e))

let resume ~path ~header ~valid_bytes =
  if valid_bytes > 0 then open_append ~path ~valid_bytes
  else create ~path ~header

let close w = close_out_noerr w.oc
