let named path r = Result.map_error (fun e -> path ^ ": " ^ e) r

(* The runtime names [path] when opening fails, not when a read does (a
   directory opens, then reads EISDIR). *)
let load path parse =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> named path (parse text)
  | exception Sys_error e when String.starts_with ~prefix:(path ^ ": ") e ->
    Error e
  | exception Sys_error e -> named path (Error e)
