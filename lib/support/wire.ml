(* A growable bytes encoder rather than a [Buffer.t]: the buffer is
   reusable via [reset], so hot paths can keep one encoder alive (or
   borrow one from the small pool behind [with_encoder]) and pay no
   per-encode allocation beyond the final string. *)
type enc = { mutable buf : Bytes.t; mutable len : int }

let encoder ?(size = 64) () = { buf = Bytes.create (max 16 size); len = 0 }
let to_string e = Bytes.sub_string e.buf 0 e.len
let size e = e.len
let reset e = e.len <- 0
let blit_to_bytes e dst pos = Bytes.blit e.buf 0 dst pos e.len

let ensure e n =
  let need = e.len + n in
  let cap = Bytes.length e.buf in
  if need > cap then begin
    let cap' = ref (cap * 2) in
    while need > !cap' do
      cap' := !cap' * 2
    done;
    let b = Bytes.create !cap' in
    Bytes.blit e.buf 0 b 0 e.len;
    e.buf <- b
  end

let add_char e c =
  ensure e 1;
  Bytes.unsafe_set e.buf e.len c;
  e.len <- e.len + 1

(* Bounded free-list of encoders.  Buffers keep their grown capacity
   across uses, so steady-state encoding of similar-sized packets does
   not touch the allocator at all.  The pool is domain-local: a
   module-global free-list would be mutated without synchronization by
   every domain that encodes a packet, so each domain gets its own
   (lazily created, at most [pool_max] encoders each). *)
type pool = { mutable free : enc list; mutable free_len : int }

let pool_max = 8
let pool_key = Domain.DLS.new_key (fun () -> { free = []; free_len = 0 })

let with_encoder ?size f =
  let pool = Domain.DLS.get pool_key in
  let e =
    match pool.free with
    | e :: rest ->
        pool.free <- rest;
        pool.free_len <- pool.free_len - 1;
        reset e;
        (match size with Some n -> ensure e n | None -> ());
        e
    | [] -> encoder ?size ()
  in
  let release () =
    if pool.free_len < pool_max then begin
      pool.free <- e :: pool.free;
      pool.free_len <- pool.free_len + 1
    end
  in
  match f e with
  | () ->
      let s = to_string e in
      release ();
      s
  | exception exn ->
      release ();
      raise exn

let u8 enc v =
  if v < 0 || v > 0xff then invalid_arg "Wire.u8";
  add_char enc (Char.chr v)

(* LEB128 over the raw bit pattern: logical shifts terminate even when
   the int's top bit is set, so the full range round-trips. *)
let raw_varint enc v =
  let rec go v =
    if v >= 0 && v < 0x80 then add_char enc (Char.chr v)
    else begin
      add_char enc (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

let varint enc v =
  if v < 0 then invalid_arg "Wire.varint: negative";
  raw_varint enc v

let zint enc v =
  (* zigzag: maps 0,-1,1,-2,... to the bit patterns 0,1,2,3,... *)
  let z = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
  raw_varint enc z

let bool enc b = u8 enc (if b then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Size arithmetic: the number of bytes each writer above would emit,
   without allocating a buffer.  Kept next to the writers so a format
   change cannot drift silently — the test suite asserts
   [measured = String.length encoded] over every packet constructor. *)

let varint_size v =
  let rec go v n = if v >= 0 && v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let zint_size v = varint_size ((v lsl 1) lxor (v asr (Sys.int_size - 1)))
let string_size s = varint_size (String.length s) + String.length s

let float enc f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    add_char enc
      (Char.chr (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done

let string enc s =
  varint enc (String.length s);
  ensure enc (String.length s);
  Bytes.blit_string s 0 enc.buf enc.len (String.length s);
  enc.len <- enc.len + String.length s

let list enc f xs =
  varint enc (List.length xs);
  List.iter (f enc) xs

let option enc f = function
  | None -> u8 enc 0
  | Some x ->
      u8 enc 1;
      f enc x

let pair enc fa fb (a, b) =
  fa enc a;
  fb enc b

type dec = { data : string; mutable pos : int }

exception Malformed of string

let decoder data = { data; pos = 0 }
let remaining d = String.length d.data - d.pos
let at_end d = remaining d = 0
let fail msg = raise (Malformed msg)

let read_u8 d =
  if d.pos >= String.length d.data then fail "u8: truncated";
  let c = Char.code d.data.[d.pos] in
  d.pos <- d.pos + 1;
  c

let read_varint d =
  let rec go shift acc =
    if shift > Sys.int_size then fail "varint: overflow";
    let b = read_u8 d in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_zint d =
  let z = read_varint d in
  (z lsr 1) lxor (-(z land 1))

let read_bool d =
  match read_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> fail (Printf.sprintf "bool: byte %d" n)

let read_float d =
  let bits = ref 0L in
  for i = 0 to 7 do
    let b = read_u8 d in
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int b) (8 * i))
  done;
  Int64.float_of_bits !bits

let read_string d =
  let len = read_varint d in
  if len < 0 || len > remaining d then fail "string: truncated";
  let s = String.sub d.data d.pos len in
  d.pos <- d.pos + len;
  s

(* A table length: every entry takes at least one byte, so a count
   beyond the bytes left (or a negative one, from an overlong varint) is
   corrupt — and must not reach [Array.init] or [List.init]. *)
let read_count d =
  let n = read_varint d in
  if n < 0 || n > remaining d then
    fail (Printf.sprintf "count %d exceeds input" n);
  n

let read_list d f = List.init (read_count d) (fun _ -> f d)

let read_option d f =
  match read_u8 d with
  | 0 -> None
  | 1 -> Some (f d)
  | n -> fail (Printf.sprintf "option: tag %d" n)

let read_pair d fa fb =
  let a = fa d in
  let b = fb d in
  (a, b)
