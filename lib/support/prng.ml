(* The 64-bit state lives in an 8-byte buffer rather than a [mutable
   int64] field, which would box a fresh int64 on every write; read and
   written through the unboxed primitives, with [mix64] and [step]
   inlined, a draw keeps its int64 temporaries in registers and
   [int] allocates nothing. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create seed = of_state (Int64.of_int seed)
let copy t = Bytes.copy t

let[@inline] step t =
  let state = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 state;
  mix64 state

let next t = step t

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* keep 62 bits so the OCaml int is non-negative *)
  let v = Int64.to_int (Int64.logand (step t) 0x3FFFFFFFFFFFFFFFL) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (step t) 11) in
  (* 53 significant bits, as in the standard doubles trick *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (step t) 1L = 1L

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let shuffle t xs =
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let split t = of_state (mix64 (step t))

(* Pure derivation: no generator is consumed, so every owner can
   compute its own stream from the run seed independently — the
   per-owner discipline the parallel runtime relies on (each shard
   seeds its simulator with [for_owner ~seed ~owner:shard] before its
   domain starts; no [t] is ever shared across domains). *)
let for_owner ~seed ~owner =
  of_state
    (mix64
       (Int64.add (Int64.of_int seed)
          (Int64.mul golden_gamma (Int64.of_int (owner + 1)))))
