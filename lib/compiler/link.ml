module Vec = Tyco_support.Vec

type area = {
  blocks : Block.block Vec.t;
  mtables : Block.mtable Vec.t;
  dispatch : int array Vec.t;
      (* parallel to [mtables]: direct-mapped label id -> entry index
         (-1 = no such method).  Sized to the label count at link time;
         ids interned later cannot occur in an earlier table, so lookups
         bounds-check and treat overflow as -1. *)
  groups : Block.group Vec.t;
  labels : string Vec.t;                 (* label id -> label *)
  label_ids : (string, int) Hashtbl.t;   (* label -> label id *)
  mutable instrs : int;
  mutable snap : Block.unit_ option;  (* cache, cleared by link *)
}

type offsets = { blk_off : int; mt_off : int; grp_off : int }

let create () =
  { blocks = Vec.create (); mtables = Vec.create ();
    dispatch = Vec.create (); groups = Vec.create (); labels = Vec.create ();
    label_ids = Hashtbl.create 16; instrs = 0; snap = None }

let intern area label =
  match Hashtbl.find_opt area.label_ids label with
  | Some id -> id
  | None ->
      let id = Vec.push area.labels label in
      Hashtbl.add area.label_ids label id;
      id

let label_name area lid = Vec.get area.labels lid
let n_labels area = Vec.length area.labels

let shift_instr area (o : offsets) (ins : Instr.t) : Instr.t =
  match ins with
  | Instr.Trmsg r -> Instr.Trmsg { r with lid = intern area r.label }
  | Instr.Trobj mt -> Instr.Trobj (mt + o.mt_off)
  | Instr.Defgroup g -> Instr.Defgroup (g + o.grp_off)
  | Instr.Import_name r -> Instr.Import_name { r with cont = r.cont + o.blk_off }
  | Instr.Import_class r ->
      Instr.Import_class { r with cont = r.cont + o.blk_off }
  | _ -> ins

let build_dispatch area (entries : Block.mentry array) =
  let ids = Array.map (fun (e : Block.mentry) -> intern area e.me_label) entries in
  let d = Array.make (Vec.length area.labels) (-1) in
  (* first entry wins on duplicate labels, matching the former scan *)
  Array.iteri (fun i lid -> if d.(lid) < 0 then d.(lid) <- i) ids;
  d

let link area (u : Block.unit_) : offsets =
  area.snap <- None;
  let o =
    { blk_off = Vec.length area.blocks;
      mt_off = Vec.length area.mtables;
      grp_off = Vec.length area.groups }
  in
  Array.iter
    (fun (b : Block.block) ->
      area.instrs <- area.instrs + Array.length b.blk_code;
      let code = Array.map (shift_instr area o) b.blk_code in
      ignore
        (Vec.push area.blocks
           { b with Block.blk_id = b.blk_id + o.blk_off; blk_code = code }))
    u.blocks;
  Array.iter
    (fun (mt : Block.mtable) ->
      let entries =
        Array.map
          (fun (e : Block.mentry) ->
            { e with Block.me_block = e.me_block + o.blk_off })
          mt.mt_entries
      in
      ignore
        (Vec.push area.mtables
           { mt with Block.mt_id = mt.mt_id + o.mt_off; mt_entries = entries });
      ignore (Vec.push area.dispatch (build_dispatch area mt.mt_entries)))
    u.mtables;
  Array.iter
    (fun (g : Block.group) ->
      ignore
        (Vec.push area.groups
           { g with
             Block.grp_id = g.grp_id + o.grp_off;
             grp_classes =
               Array.map
                 (fun (c : Block.class_sig) ->
                   { c with Block.cls_block = c.cls_block + o.blk_off })
                 g.grp_classes }))
    u.groups;
  o

let of_unit u =
  let area = create () in
  let o = link area u in
  (area, u.Block.entry + o.blk_off)

let block area i = Vec.get area.blocks i
let mtable area i = Vec.get area.mtables i
let group area i = Vec.get area.groups i
let n_blocks area = Vec.length area.blocks
let n_instrs area = area.instrs

let method_entry area mt ~lid =
  let d = Vec.get area.dispatch mt in
  if lid >= 0 && lid < Array.length d then d.(lid) else -1

let snapshot area =
  match area.snap with
  | Some u -> u
  | None ->
      let u =
        { Block.blocks = Array.of_list (Vec.to_list area.blocks);
          mtables = Array.of_list (Vec.to_list area.mtables);
          groups = Array.of_list (Vec.to_list area.groups);
          entry = 0 }
      in
      area.snap <- Some u;
      u
