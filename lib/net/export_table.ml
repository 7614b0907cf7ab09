module Heap = Tyco_support.Heap

(* Heap identifiers pack a slot number (low [slot_bits]) with a reuse
   generation (high bits): removing an entry retires its identifier and
   free-lists the slot under the next generation, so a reused slot
   yields a fresh identifier and a reference to the removed entry can
   never alias the new occupant.  With 63-bit ints this leaves 43
   generation bits per slot — unreachable in practice. *)
let slot_bits = 20
let slot_mask = (1 lsl slot_bits) - 1
let slot_of id = id land slot_mask
let gen_of id = id lsr slot_bits
let make_id ~gen ~slot = (gen lsl slot_bits) lor slot

(* Lease expiry of a slot: [unleased] until the first {!renew} queues
   it, [pinned] for good after {!pin}, a virtual time otherwise. *)
let unleased = 0
let pinned = max_int

(* A slot is created once and reused by every later occupant.  When
   free, [value] is [None] and [id] keeps the retired identifier, from
   which the next occupant's generation follows. *)
type 'a slot = {
  mutable id : int;
  mutable uid : int;
  mutable value : 'a option;
  mutable expiry : int;
}

type 'a t = {
  by_uid : (int, int) Hashtbl.t; (* entity uid -> heap id *)
  mutable slots : 'a slot array;
  mutable next_slot : int;
  mutable free : int list; (* free slots, most recently freed first *)
  mutable allocs : int; (* lifetime allocations *)
  mutable removed : int; (* lifetime removals *)
  (* due-time queue of leased ids, at most one entry per live id.  A
     renewal only moves the slot's expiry; an entry that comes due
     early is pushed back at the slot's current expiry, so a renewal
     costs no queue work. *)
  due : int Heap.t;
}

let create () =
  { by_uid = Hashtbl.create 32; slots = [||]; next_slot = 0; free = [];
    allocs = 0; removed = 0; due = Heap.create () }

let export t ~uid v =
  match Hashtbl.find_opt t.by_uid uid with
  | Some heap_id -> heap_id
  | None ->
      let heap_id =
        match t.free with
        | slot :: rest ->
            t.free <- rest;
            let s = t.slots.(slot) in
            let heap_id = make_id ~gen:(gen_of s.id + 1) ~slot in
            s.id <- heap_id;
            s.uid <- uid;
            s.value <- Some v;
            s.expiry <- unleased;
            heap_id
        | [] ->
            let slot = t.next_slot in
            let heap_id = make_id ~gen:0 ~slot in
            let s = { id = heap_id; uid; value = Some v; expiry = unleased } in
            if slot = Array.length t.slots then begin
              let bigger = Array.make (max 16 (2 * slot)) s in
              Array.blit t.slots 0 bigger 0 slot;
              t.slots <- bigger
            end;
            t.slots.(slot) <- s;
            t.next_slot <- slot + 1;
            heap_id
      in
      t.allocs <- t.allocs + 1;
      Hashtbl.add t.by_uid uid heap_id;
      heap_id

(* Whether [heap_id] names a live entry. *)
let holds t heap_id =
  let slot = slot_of heap_id in
  slot < t.next_slot
  &&
  let s = Array.unsafe_get t.slots slot in
  s.id = heap_id && Option.is_some s.value

let resolve t heap_id =
  let slot = slot_of heap_id in
  if slot < t.next_slot then
    let s = Array.unsafe_get t.slots slot in
    if s.id = heap_id then s.value else None
  else None

let remove t heap_id =
  holds t heap_id
  && begin
       let slot = slot_of heap_id in
       let s = t.slots.(slot) in
       s.value <- None;
       Hashtbl.remove t.by_uid s.uid;
       t.free <- slot :: t.free;
       t.removed <- t.removed + 1;
       true
     end

let live t = t.allocs - t.removed
let allocated t = t.allocs
let reclaimed t = t.removed
let was_allocated t heap_id = slot_of heap_id < t.next_slot

(* ------------------------------------------------------------------ *)
(* Leases.                                                             *)

let renew t heap_id ~until =
  if holds t heap_id then begin
    let s = t.slots.(slot_of heap_id) in
    if s.expiry <> pinned then begin
      if s.expiry = unleased then Heap.push t.due until heap_id;
      s.expiry <- until
    end
  end

let pin t heap_id =
  if holds t heap_id then t.slots.(slot_of heap_id).expiry <- pinned

let expire t ~now on_remove =
  let dead = ref [] and scanning = ref true in
  while !scanning do
    match Heap.peek_key t.due with
    | Some at when at <= now -> (
        match Heap.pop t.due with
        | Some (_, id) when holds t id ->
            let expiry = t.slots.(slot_of id).expiry in
            if expiry <= now then dead := id :: !dead
            else if expiry <> pinned then Heap.push t.due expiry id
        | _ -> () (* removed or re-issued since it was queued *))
    | _ -> scanning := false
  done;
  match !dead with
  | [] -> 0
  | dead ->
      (* removal order fixes the free list, and with it every later id *)
      let dead = List.sort compare dead in
      List.iter
        (fun id ->
          (match resolve t id with Some v -> on_remove id v | None -> ());
          ignore (remove t id))
        dead;
      List.length dead
