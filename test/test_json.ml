(* The hand-rolled JSON codec underlying the campaign reports.  The
   determinism guarantee of the campaign runner leans on [to_string]
   being canonical and [parse] round-tripping it exactly, so both
   directions are exercised here. *)

module Json = Rtnet_util.Json

let sample =
  Json.Obj
    [
      ("name", Json.String "smoke");
      ("count", Json.Int 42);
      ("ratio", Json.Float 0.25);
      ("neg", Json.Int (-7));
      ("ok", Json.Bool true);
      ("off", Json.Bool false);
      ("nothing", Json.Null);
      ("items", Json.List [ Json.Int 1; Json.Float 1.5; Json.String "x" ]);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ("nested", Json.Obj [ ("deep", Json.List [ Json.Obj [ ("k", Json.Int 0) ] ]) ]);
    ]

let roundtrip v =
  match Json.parse (Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.fail e

let test_roundtrip () =
  Alcotest.(check bool) "structure survives" true (roundtrip sample = sample);
  (* Canonical: a second render of the re-parsed value is byte-equal. *)
  Alcotest.(check string) "canonical" (Json.to_string sample)
    (Json.to_string (roundtrip sample))

let test_pretty_roundtrip () =
  let pretty = Format.asprintf "%a" Json.pp sample in
  match Json.parse pretty with
  | Ok v -> Alcotest.(check bool) "pretty parses back" true (v = sample)
  | Error e -> Alcotest.fail e

let test_int_float_split () =
  let check_tok tok expected =
    match Json.parse tok with
    | Ok v -> Alcotest.(check bool) (tok ^ " kind") true (v = expected)
    | Error e -> Alcotest.fail e
  in
  check_tok "1" (Json.Int 1);
  check_tok "-3" (Json.Int (-3));
  check_tok "1.0" (Json.Float 1.0);
  check_tok "1e3" (Json.Float 1000.);
  check_tok "-2.5E-1" (Json.Float (-0.25))

let test_float_repr_roundtrips () =
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
        Alcotest.(check bool)
          (Printf.sprintf "%h survives" f)
          true
          (Int64.bits_of_float f = Int64.bits_of_float f')
      | Ok _ -> Alcotest.fail "float token parsed as non-float"
      | Error e -> Alcotest.fail e)
    [ 0.; 1.; -1.; 0.1; 1. /. 3.; 1e-300; 1.7976931348623157e308;
      4.9e-324; 243098.3492063492; 0.26103597856596072 ]

let test_non_finite_rejected () =
  List.iter
    (fun f ->
      match Json.to_string (Json.Float f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.fail ("non-finite float rendered as " ^ s))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_string_escapes () =
  let v = Json.String "a\"b\\c\nd\te\r\x01" in
  Alcotest.(check bool) "escapes survive" true (roundtrip v = v);
  (match Json.parse {|"\u0041\u00e9"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "unicode escapes" "A\xc3\xa9" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape parse");
  match Json.parse {|"\ud83d\ude00"|} with
  | Ok (Json.String s) ->
    Alcotest.(check string) "surrogate pair to UTF-8" "\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "surrogate pair parse"

let test_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted malformed input " ^ s)
      | Error _ -> ())
    [
      ""; "{"; "[1,"; "{\"a\" 1}"; "\"unterminated"; "tru"; "1 2";
      "{\"a\":1,}"; "\"\\ud83d\""; "nullx";
    ]

let test_accessors () =
  let j = roundtrip sample in
  Alcotest.(check int) "field int" 42
    (Result.get_ok (Result.bind (Json.field "count" j) Json.get_int));
  Alcotest.(check (float 0.)) "int widens to float" 42.
    (Result.get_ok (Result.bind (Json.field "count" j) Json.get_float));
  Alcotest.(check bool) "member missing" true (Json.member "nope" j = None);
  (match Json.field "nope" j with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "field on missing key");
  match Result.bind (Json.field "name" j) Json.get_int with
  | Error msg ->
    Alcotest.(check bool) "type error names types" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "string accepted as int"

let test_to_file_parse_file () =
  let path = Filename.temp_file "rtnet_json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.to_file path sample;
      match Json.parse_file path with
      | Ok v -> Alcotest.(check bool) "file round-trip" true (v = sample)
      | Error e -> Alcotest.fail e)

(* --- The writer against a reference --- *)

(* The writer as it was written before it stopped going through
   [string_of_int], [Printf] and [List.iteri]: kept here only as the
   reference that pins the bytes of the faster one. *)
module Reference = struct
  let float_repr f =
    (match Float.classify_float f with
    | FP_nan | FP_infinite -> invalid_arg "non-finite"
    | FP_normal | FP_subnormal | FP_zero -> ());
    let s =
      let short = Printf.sprintf "%.12g" f in
      if float_of_string short = f then short else Printf.sprintf "%.17g" f
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec write buf = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Int i -> Buffer.add_string buf (string_of_int i)
    | Json.Float f -> Buffer.add_string buf (float_repr f)
    | Json.String s -> escape_string buf s
    | Json.List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        vs;
      Buffer.add_char buf ']'
    | Json.Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf

  let pretty buf v =
    let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
    let rec go depth = function
      | (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _)
        as v ->
        write buf v
      | Json.List [] -> Buffer.add_string buf "[]"
      | Json.List vs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            go (depth + 1) v)
          vs;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf ']'
      | Json.Obj [] -> Buffer.add_string buf "{}"
      | Json.Obj kvs ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            escape_string buf k;
            Buffer.add_string buf ": ";
            go (depth + 1) v)
          kvs;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf '}'
    in
    go 0 v

  (* What [to_file] writes. *)
  let file_bytes v =
    let buf = Buffer.create 4096 in
    pretty buf v;
    Buffer.add_char buf '\n';
    Buffer.contents buf
end

(* Trees whose scalars sit where a writer's edge cases are: the ints
   around a digit boundary and the two ends of the range; bytes drawn
   mostly from the ones that need an escape or border one, the rest
   from all 256; floats at both ends of the range, subnormals, signed
   zero, integral values (the ".0" rule), and values whose %.12g does
   and does not read back to the same float. *)
let gen_tree =
  let open QCheck.Gen in
  let int_g =
    frequency
      [
        (3, oneofl [ 0; 1; -1; 9; -9; 10; -10; min_int; max_int ]);
        (1, oneofl [ 99; -100; 1_000_000; min_int + 1; max_int - 1 ]);
        (2, int);
      ]
  in
  let byte_g =
    frequency
      [
        ( 1,
          oneofl
            [ '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\012'; '\x00'; '\x1f';
              '\x20'; '\x7f'; '\x80'; '\xff'; '/' ] );
        (2, map Char.chr (int_range 0 255));
      ]
  in
  let string_g =
    frequency
      [
        (1, string_size ~gen:byte_g (int_range 0 12));
        (1, string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
      ]
  in
  let float_g =
    frequency
      [
        ( 3,
          oneofl
            [ 0.; -0.; 5e-324; -5e-324; 2.2250738585072009e-308;
              1.7976931348623157e308; -1.7976931348623157e308; 1.; -2.; 1e15;
              1e16; 1e17; 123456789012.; 0.1; 0.25; 1. /. 3.; 2. /. 3.;
              1e-7; 123.456; 0.30000000000000004 ] );
        (1, map (fun i -> float_of_int i) int);
        (1, map (fun i -> Int64.float_of_bits (Int64.of_int i)) (int_bound 1_000_000));
        (2, map2 (fun a b -> float_of_int a /. float_of_int (b + 1)) int (int_bound 1000));
        ( 2,
          map (fun b -> Int64.float_of_bits b) ui64
          >|= fun f -> if Float.is_finite f then f else 0.5 );
      ]
  in
  let scalar =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (3, map (fun i -> Json.Int i) int_g);
        (3, map (fun f -> Json.Float f) float_g);
        (3, map (fun s -> Json.String s) string_g);
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n - 1))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair string_g (self (n - 1)))) );
               (1, return (Json.List []));
               (1, return (Json.Obj []));
             ])

let prop_writer_bytes =
  QCheck.Test.make ~name:"writer bytes match the reference writer" ~count:500
    (QCheck.make ~print:Reference.to_string gen_tree)
    (fun v ->
      let path = Filename.temp_file "rtnet_json_prop" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Json.to_file path v;
          let ic = open_in_bin path in
          let file =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          String.equal (Json.to_string v) (Reference.to_string v)
          && String.equal file (Reference.file_bytes v)))

let test_decoding_helpers () =
  let int_r = Alcotest.(result int string) in
  let opt_r = Alcotest.(result (option int) string) in
  let o = Json.Obj [ ("a", Json.Int 1); ("n", Json.Null) ] in
  Alcotest.check int_r "field_or present" (Ok 1)
    (Json.field_or "a" ~default:7 Json.get_int o);
  Alcotest.check int_r "field_or absent" (Ok 7)
    (Json.field_or "b" ~default:7 Json.get_int o);
  Alcotest.check int_r "field_or: a present null is a value"
    (Error "expected int, found null")
    (Json.field_or "n" ~default:7 Json.get_int o);
  Alcotest.check opt_r "field_opt present" (Ok (Some 1))
    (Json.field_opt "a" Json.get_int o);
  Alcotest.check opt_r "field_opt absent" (Ok None)
    (Json.field_opt "b" Json.get_int o);
  Alcotest.check opt_r "field_opt: null is absent" (Ok None)
    (Json.field_opt "n" Json.get_int o);
  (* A non-object is not an empty object. *)
  List.iter
    (fun (v, found) ->
      let e = Error ("expected object, found " ^ found) in
      Alcotest.check int_r ("field_or on " ^ found) e
        (Json.field_or "a" ~default:7 Json.get_int v);
      Alcotest.check opt_r ("field_opt on " ^ found) e
        (Json.field_opt "a" Json.get_int v))
    [
      (Json.String "a", "string");
      (Json.List [], "list");
      (Json.Int 3, "int");
      (Json.Null, "null");
    ];
  (* list_of and obj_of keep order and stop at the first error. *)
  let seen = ref [] in
  let count_int v =
    seen := v :: !seen;
    Json.get_int v
  in
  let list_r = Alcotest.(result (list int) string) in
  Alcotest.check list_r "list_of in order" (Ok [ 3; 1; 2 ])
    (Json.list_of Json.get_int (Json.List [ Json.Int 3; Json.Int 1; Json.Int 2 ]));
  Alcotest.check list_r "list_of: first error wins"
    (Error "expected int, found string")
    (Json.list_of count_int
       (Json.List [ Json.Int 1; Json.String "x"; Json.Bool true ]));
  Alcotest.(check int) "list_of stops at the error" 2 (List.length !seen);
  Alcotest.check list_r "list_of on an object" (Error "expected list, found object")
    (Json.list_of Json.get_int o);
  let obj_r = Alcotest.(result (list (pair string int)) string) in
  Alcotest.check obj_r "obj_of in key order" (Ok [ ("b", 2); ("a", 1) ])
    (Json.obj_of (fun _ -> Json.get_int)
       (Json.Obj [ ("b", Json.Int 2); ("a", Json.Int 1) ]));
  Alcotest.check obj_r "obj_of passes the key" (Error "bad key a")
    (Json.obj_of
       (fun k v -> if k = "a" then Error ("bad key " ^ k) else Json.get_int v)
       (Json.Obj [ ("b", Json.Int 2); ("a", Json.Int 1); ("c", Json.Null) ]));
  Alcotest.check obj_r "obj_of on a list" (Error "expected object, found list")
    (Json.obj_of (fun _ -> Json.get_int) (Json.List []))

let suite =
  [
    ( "json",
      [
        Alcotest.test_case "round-trip" `Quick test_roundtrip;
        Alcotest.test_case "pretty round-trip" `Quick test_pretty_roundtrip;
        Alcotest.test_case "int/float split" `Quick test_int_float_split;
        Alcotest.test_case "float repr" `Quick test_float_repr_roundtrips;
        Alcotest.test_case "non-finite rejected" `Quick test_non_finite_rejected;
        Alcotest.test_case "string escapes" `Quick test_string_escapes;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "accessors" `Quick test_accessors;
        Alcotest.test_case "file io" `Quick test_to_file_parse_file;
        QCheck_alcotest.to_alcotest ~speed_level:`Quick
          ~rand:(Random.State.make [| 26 |])
          prop_writer_bytes;
        Alcotest.test_case "decoding helpers" `Quick test_decoding_helpers;
      ] );
  ]
