(* The state is 8 bytes read and written as an unboxed [int64]: a
   mutable [int64] record field would box every new state.  [next]
   and the mixer are inlined into each draw, so a draw keeps its
   arithmetic unboxed and allocates at most the box of its result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next g =
  let s = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 s;
  mix s

let bits64 g = next g

let split g = of_state (next g)

let derive seed i =
  if i < 0 then invalid_arg "Prng.derive: negative index";
  (* Two finalizer rounds keep child seeds statistically independent of
     both the parent seed and neighbouring indices (SplitMix64's
     stream-splitting construction). *)
  let z = mix (Int64.add (Int64.of_int seed) golden_gamma) in
  let z = mix (Int64.logxor z (Int64.mul (Int64.of_int (i + 1)) 0x94D049BB133111EBL)) in
  Int64.to_int (mix z) land max_int

let stream ~seed ~path = create (List.fold_left derive seed path)

(* Rejection sampling on the top 62 bits keeps the draw unbiased.  A
   top-level loop, so a draw builds no closure. *)
let rec draw_int g n =
  let v = Int64.to_int (Int64.shift_right_logical (next g) 2) land max_int in
  let r = v mod n in
  if v - r + (n - 1) >= 0 then r else draw_int g n

let int g n =
  if n <= 0 then invalid_arg "Prng.int: n <= 0";
  draw_int g n

(* Uniform in [0, 1): the top 53 bits over 2^53. *)
let[@inline] unit_float g =
  Int64.to_float (Int64.shift_right_logical (next g) 11) /. 9007199254740992.0

let float g x =
  if x <= 0. then invalid_arg "Prng.float: x <= 0";
  x *. unit_float g

(* [1.0 *. u] is [u] exactly, so this is [float g 1.0 < p] bit for
   bit, without boxing the draw. *)
let below g p = unit_float g < p

let bool g = Int64.logand (next g) 1L = 1L

let exponential g rate =
  if rate <= 0. then invalid_arg "Prng.exponential: rate <= 0";
  let u = 1.0 -. unit_float g in
  -.log u /. rate

let shuffle g arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
