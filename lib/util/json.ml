type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The writer appends straight to a [Buffer.t]: ints through a digit
   loop, floats through the C formatter Printf itself ends in, strings
   that need no escape in one [add_string], lists and objects by plain
   recursion — no [Printf], no closure per element or per byte.  The
   bytes are the ones [string_of_int], [Printf.sprintf "%.12g"] and a
   per-character escape would give; the tier-1 writer property compares
   them with that reference on random trees. *)

external format_float : string -> float -> string = "caml_format_float"

(* Digits of a non-positive [n], most significant first.  Working on
   the negative side covers [min_int], whose magnitude is no int. *)
let rec add_neg_digits buf n =
  if n <> 0 then begin
    add_neg_digits buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))
  end

let add_int buf i =
  if i >= 0 && i < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + i))
  else if i < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf i
  end
  else add_neg_digits buf (-i)

let rec has_dot_or_exponent s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | '.' | 'e' | 'E' -> true
  | _ -> has_dot_or_exponent s (i + 1)

(* Canonical float rendering: the shortest of %.12g / %.17g that
   round-trips, forced to contain a '.' or exponent so the token parses
   back as a Float (not an Int). *)
let add_float buf f =
  (match Float.classify_float f with
  | FP_nan | FP_infinite ->
    invalid_arg "Json: non-finite floats have no JSON representation"
  | FP_normal | FP_subnormal | FP_zero -> ());
  let s =
    let short = format_float "%.12g" f in
    if float_of_string short = f then short else format_float "%.17g" f
  in
  Buffer.add_string buf s;
  if not (has_dot_or_exponent s 0) then Buffer.add_string buf ".0"

let hex_digit n = Char.unsafe_chr (if n < 10 then 48 + n else 87 + n)

let rec clean s i =
  i >= String.length s
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && Char.code c >= 0x20 && clean s (i + 1)

let escape_string buf s =
  Buffer.add_char buf '"';
  if clean s 0 then Buffer.add_string buf s
  else
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf (hex_digit (Char.code c lsr 4));
        Buffer.add_char buf (hex_digit (Char.code c land 15))
      | c -> Buffer.add_char buf c
    done;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (v :: vs) ->
    Buffer.add_char buf '[';
    write buf v;
    write_items buf vs;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (kv :: kvs) ->
    Buffer.add_char buf '{';
    write_field buf kv;
    write_fields buf kvs;
    Buffer.add_char buf '}'

and write_items buf = function
  | [] -> ()
  | v :: vs ->
    Buffer.add_char buf ',';
    write buf v;
    write_items buf vs

and write_field buf (k, v) =
  escape_string buf k;
  Buffer.add_char buf ':';
  write buf v

and write_fields buf = function
  | [] -> ()
  | kv :: kvs ->
    Buffer.add_char buf ',';
    write_field buf kv;
    write_fields buf kvs

let to_buffer = write

let list_to_buffer buf f = function
  | [] -> Buffer.add_string buf "[]"
  | x :: xs ->
    Buffer.add_char buf '[';
    write buf (f x);
    List.iter
      (fun x ->
        Buffer.add_char buf ',';
        write buf (f x))
      xs;
    Buffer.add_char buf ']'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* The pretty layout: two-space indentation, one element or field per
   line, scalars in {!write}'s bytes. *)
let rec pad buf n =
  if n > 0 then begin
    Buffer.add_string buf "  ";
    pad buf (n - 1)
  end

let rec pretty buf depth = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v -> write buf v
  | List [] -> Buffer.add_string buf "[]"
  | List (v :: vs) ->
    Buffer.add_string buf "[\n";
    pretty_item buf depth v;
    pretty_items buf depth vs;
    Buffer.add_char buf '\n';
    pad buf depth;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (kv :: kvs) ->
    Buffer.add_string buf "{\n";
    pretty_field buf depth kv;
    pretty_fields buf depth kvs;
    Buffer.add_char buf '\n';
    pad buf depth;
    Buffer.add_char buf '}'

and pretty_item buf depth v =
  pad buf (depth + 1);
  pretty buf (depth + 1) v

and pretty_items buf depth = function
  | [] -> ()
  | v :: vs ->
    Buffer.add_string buf ",\n";
    pretty_item buf depth v;
    pretty_items buf depth vs

and pretty_field buf depth (k, v) =
  pad buf (depth + 1);
  escape_string buf k;
  Buffer.add_string buf ": ";
  pretty buf (depth + 1) v

and pretty_fields buf depth = function
  | [] -> ()
  | kv :: kvs ->
    Buffer.add_string buf ",\n";
    pretty_field buf depth kv;
    pretty_fields buf depth kvs

let pp fmt v =
  let buf = Buffer.create 256 in
  pretty buf 0 v;
  Format.pp_print_string fmt (Buffer.contents buf)

let to_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let buf = Buffer.create 4096 in
      pretty buf 0 v;
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)

(* ---------------------------------------------------------------- *)
(* Parser: plain recursive descent over a string.                    *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" cur.pos msg))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some d when d = c -> advance cur
  | Some d -> fail cur (Printf.sprintf "expected %C, found %C" c d)
  | None -> fail cur (Printf.sprintf "expected %C, found end of input" c)

let literal cur word v =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    v
  end
  else fail cur (Printf.sprintf "expected %s" word)

(* Encode one Unicode scalar value as UTF-8. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 cur =
  let digit () =
    match peek cur with
    | Some c ->
      advance cur;
      (match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail cur "invalid \\u escape")
    | None -> fail cur "truncated \\u escape"
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | None -> fail cur "unterminated escape"
      | Some c ->
        advance cur;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let cp = hex4 cur in
          let cp =
            (* Combine a surrogate pair when one follows. *)
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              if
                cur.pos + 1 < String.length cur.src
                && cur.src.[cur.pos] = '\\'
                && cur.src.[cur.pos + 1] = 'u'
              then begin
                cur.pos <- cur.pos + 2;
                let lo = hex4 cur in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                else fail cur "invalid low surrogate"
              end
              else fail cur "unpaired surrogate"
            end
            else cp
          in
          add_utf8 buf cp
        | c -> fail cur (Printf.sprintf "invalid escape \\%c" c)));
      go ()
    | Some c when Char.code c < 0x20 -> fail cur "control character in string"
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

(* A float too large for a double ([1e999], or an over-long integer)
   reads as infinity, which no JSON value can stand for: the printer
   refuses it, so a decoder that re-encodes what it read would raise. *)
let float_token cur tok =
  match float_of_string_opt tok with
  | Some f when Float.is_finite f -> Float f
  | Some _ -> fail cur (Printf.sprintf "number %S out of range" tok)
  | None -> fail cur (Printf.sprintf "invalid number %S" tok)

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  (match peek cur with Some '-' -> advance cur | _ -> ());
  let rec digits () =
    match peek cur with
    | Some '0' .. '9' ->
      advance cur;
      digits ()
    | _ -> ()
  in
  digits ();
  (match peek cur with
  | Some '.' ->
    is_float := true;
    advance cur;
    digits ()
  | _ -> ());
  (match peek cur with
  | Some ('e' | 'E') ->
    is_float := true;
    advance cur;
    (match peek cur with Some ('+' | '-') -> advance cur | _ -> ());
    digits ()
  | _ -> ());
  let tok = String.sub cur.src start (cur.pos - start) in
  if !is_float then float_token cur tok
  else
    match int_of_string_opt tok with
    | Some i -> Int i
    | None ->
      (* Out of int range: degrade to float rather than failing. *)
      float_token cur tok

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> String (parse_string cur)
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let binding () =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        (k, v)
      in
      let rec items acc =
        let kv = binding () in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (kv :: acc)
        | Some '}' ->
          advance cur;
          List.rev (kv :: acc)
        | _ -> fail cur "expected ',' or '}'"
      in
      Obj (items [])
    end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %C" c)

let parse s =
  let cur = { src = s; pos = 0 } in
  match
    let v = parse_value cur in
    skip_ws cur;
    if cur.pos <> String.length s then fail cur "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let load_file path decode = Io.load path (fun s -> Result.bind (parse s) decode)
let parse_file path = load_file path Result.ok

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | List _ -> "list"
  | Obj _ -> "object"

let expected shape v =
  Error (Printf.sprintf "expected %s, found %s" shape (type_name v))

let get_int = function Int i -> Ok i | v -> expected "int" v

let get_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | v -> expected "float" v

let get_bool = function Bool b -> Ok b | v -> expected "bool" v
let get_string = function String s -> Ok s | v -> expected "string" v
let get_list = function List vs -> Ok vs | v -> expected "list" v

let field key v =
  match member key v with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

(* A non-object is not an empty object: a decoder whose fields are all
   optional would otherwise accept any scalar as its default. *)
let field_or key ~default decode = function
  | Obj kvs -> (
    match List.assoc_opt key kvs with None -> Ok default | Some x -> decode x)
  | v -> expected "object" v

let field_opt key decode = function
  | Obj kvs -> (
    match List.assoc_opt key kvs with
    | None | Some Null -> Ok None
    | Some x -> Result.map Option.some (decode x))
  | v -> expected "object" v

let list_of decode v =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: tl -> (
      match decode x with Ok y -> go (y :: acc) tl | Error e -> Error e)
  in
  match v with List vs -> go [] vs | v -> expected "list" v

let obj_of decode v =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (k, x) :: tl -> (
      match decode k x with Ok y -> go ((k, y) :: acc) tl | Error e -> Error e)
  in
  match v with Obj kvs -> go [] kvs | v -> expected "object" v
