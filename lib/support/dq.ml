(* Storage is a plain ['a array] with an untyped sentinel in the free
   slots rather than an ['a option array]: the run-queue pushes and pops
   a thread record per context switch, and the [Some] written on every
   push (plus the one returned by every pop) was measurable allocation
   on the E1 hot path.  The sentinel is an immediate, so [Array.make]
   never specializes to a flat float array; popped slots are reset to it
   so the deque does not retain popped elements.

   The capacity is always a power of two, so a logical index wraps with
   one [land] instead of a [mod] (an integer division) on every push and
   pop. *)

type 'a t = {
  mutable buf : 'a array;
  mutable head : int; (* index of front element *)
  mutable len : int;
}

let sentinel : 'a. unit -> 'a = fun () -> Obj.magic 0

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (2 * c)

let create ?(capacity = 16) () =
  { buf = Array.make (pow2_at_least capacity 1) (sentinel ()); head = 0;
    len = 0 }

let length t = t.len
let is_empty t = t.len = 0
let[@inline] index t i = (t.head + i) land (Array.length t.buf - 1)

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (cap * 2) (sentinel ()) in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.(index t i)
  done;
  t.buf <- buf;
  t.head <- 0

let push_back t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.(index t t.len) <- x;
  t.len <- t.len + 1

let push_front t x =
  if t.len = Array.length t.buf then grow t;
  t.head <- index t (-1);
  t.buf.(t.head) <- x;
  t.len <- t.len + 1

let pop_front_exn t =
  if t.len = 0 then invalid_arg "Dq.pop_front_exn: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- sentinel ();
  t.head <- index t 1;
  t.len <- t.len - 1;
  x

let pop_front t = if t.len = 0 then None else Some (pop_front_exn t)

let pop_back_exn t =
  if t.len = 0 then invalid_arg "Dq.pop_back_exn: empty";
  let i = index t (t.len - 1) in
  let x = t.buf.(i) in
  t.buf.(i) <- sentinel ();
  t.len <- t.len - 1;
  x

let pop_back t = if t.len = 0 then None else Some (pop_back_exn t)
let peek_front t = if t.len = 0 then None else Some t.buf.(t.head)

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) (sentinel ());
  t.head <- 0;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.buf.(index t i)
  done

let to_list t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := t.buf.(index t i) :: !acc
  done;
  !acc

let of_list xs =
  let t = create ~capacity:(List.length xs) () in
  List.iter (push_back t) xs;
  t
