module Wire = Tyco_support.Wire
module Ast = Tyco_syntax.Ast

let binop_tag = function
  | Ast.Add -> 0 | Ast.Sub -> 1 | Ast.Mul -> 2 | Ast.Div -> 3 | Ast.Mod -> 4
  | Ast.Eq -> 5 | Ast.Neq -> 6 | Ast.Lt -> 7 | Ast.Le -> 8 | Ast.Gt -> 9
  | Ast.Ge -> 10 | Ast.And -> 11 | Ast.Or -> 12

let binop_of_tag = function
  | 0 -> Ast.Add | 1 -> Ast.Sub | 2 -> Ast.Mul | 3 -> Ast.Div | 4 -> Ast.Mod
  | 5 -> Ast.Eq | 6 -> Ast.Neq | 7 -> Ast.Lt | 8 -> Ast.Le | 9 -> Ast.Gt
  | 10 -> Ast.Ge | 11 -> Ast.And | 12 -> Ast.Or
  | n -> raise (Wire.Malformed (Printf.sprintf "binop tag %d" n))

let encode_captures enc caps =
  Wire.varint enc (Array.length caps);
  Array.iter (Wire.varint enc) caps

let malformed fmt = Printf.ksprintf (fun m -> raise (Wire.Malformed m)) fmt

let decode_captures dec =
  let n = Wire.read_count dec in
  Array.init n (fun _ -> Wire.read_varint dec)

let encode_instr enc (ins : Instr.t) =
  match ins with
  | Instr.Push_int n ->
      Wire.u8 enc 0;
      Wire.zint enc n
  | Instr.Push_bool b ->
      Wire.u8 enc 1;
      Wire.bool enc b
  | Instr.Push_str s ->
      Wire.u8 enc 2;
      Wire.string enc s
  | Instr.Load i ->
      Wire.u8 enc 3;
      Wire.varint enc i
  | Instr.Store i ->
      Wire.u8 enc 4;
      Wire.varint enc i
  | Instr.Binop op ->
      Wire.u8 enc 5;
      Wire.u8 enc (binop_tag op)
  | Instr.Unop Ast.Neg -> Wire.u8 enc 6
  | Instr.Unop Ast.Not -> Wire.u8 enc 7
  | Instr.Jump n ->
      Wire.u8 enc 8;
      Wire.varint enc n
  | Instr.Jump_if_false n ->
      Wire.u8 enc 9;
      Wire.varint enc n
  | Instr.New_chan i ->
      Wire.u8 enc 10;
      Wire.varint enc i
  | Instr.Trmsg { label; argc; _ } ->
      (* [lid] is area-local, reassigned by the receiver's linker. *)
      Wire.u8 enc 11;
      Wire.string enc label;
      Wire.varint enc argc
  | Instr.Trobj mt ->
      Wire.u8 enc 12;
      Wire.varint enc mt
  | Instr.Defgroup g ->
      Wire.u8 enc 13;
      Wire.varint enc g
  | Instr.Instof n ->
      Wire.u8 enc 14;
      Wire.varint enc n
  | Instr.Export_name x ->
      Wire.u8 enc 15;
      Wire.string enc x
  | Instr.Export_class (x, slot) ->
      Wire.u8 enc 16;
      Wire.string enc x;
      Wire.varint enc slot
  | Instr.Import_name { site; name; cont; captures } ->
      Wire.u8 enc 17;
      Wire.string enc site;
      Wire.string enc name;
      Wire.varint enc cont;
      encode_captures enc captures
  | Instr.Import_class { site; name; cont; captures } ->
      Wire.u8 enc 18;
      Wire.string enc site;
      Wire.string enc name;
      Wire.varint enc cont;
      encode_captures enc captures

let decode_instr dec : Instr.t =
  match Wire.read_u8 dec with
  | 0 -> Instr.Push_int (Wire.read_zint dec)
  | 1 -> Instr.Push_bool (Wire.read_bool dec)
  | 2 -> Instr.Push_str (Wire.read_string dec)
  | 3 -> Instr.Load (Wire.read_varint dec)
  | 4 -> Instr.Store (Wire.read_varint dec)
  | 5 -> Instr.Binop (binop_of_tag (Wire.read_u8 dec))
  | 6 -> Instr.Unop Ast.Neg
  | 7 -> Instr.Unop Ast.Not
  | 8 -> Instr.Jump (Wire.read_varint dec)
  | 9 -> Instr.Jump_if_false (Wire.read_varint dec)
  | 10 -> Instr.New_chan (Wire.read_varint dec)
  | 11 ->
      let l = Wire.read_string dec in
      let n = Wire.read_varint dec in
      Instr.Trmsg { label = l; lid = -1; argc = n }
  | 12 -> Instr.Trobj (Wire.read_varint dec)
  | 13 -> Instr.Defgroup (Wire.read_varint dec)
  | 14 -> Instr.Instof (Wire.read_varint dec)
  | 15 -> Instr.Export_name (Wire.read_string dec)
  | 16 ->
      let x = Wire.read_string dec in
      let slot = Wire.read_varint dec in
      Instr.Export_class (x, slot)
  | 17 ->
      let site = Wire.read_string dec in
      let name = Wire.read_string dec in
      let cont = Wire.read_varint dec in
      let captures = decode_captures dec in
      Instr.Import_name { site; name; cont; captures }
  | 18 ->
      let site = Wire.read_string dec in
      let name = Wire.read_string dec in
      let cont = Wire.read_varint dec in
      let captures = decode_captures dec in
      Instr.Import_class { site; name; cont; captures }
  | n -> raise (Wire.Malformed (Printf.sprintf "instr tag %d" n))

let encode_unit enc (u : Block.unit_) =
  Wire.varint enc (Array.length u.blocks);
  Array.iter
    (fun (b : Block.block) ->
      Wire.string enc b.blk_name;
      Wire.varint enc b.blk_nparams;
      Wire.varint enc b.blk_nslots;
      Wire.varint enc (Array.length b.blk_code);
      Array.iter (encode_instr enc) b.blk_code)
    u.blocks;
  Wire.varint enc (Array.length u.mtables);
  Array.iter
    (fun (mt : Block.mtable) ->
      encode_captures enc mt.mt_captures;
      Wire.varint enc (Array.length mt.mt_entries);
      Array.iter
        (fun (e : Block.mentry) ->
          Wire.string enc e.me_label;
          Wire.varint enc e.me_block;
          Wire.varint enc e.me_nparams)
        mt.mt_entries)
    u.mtables;
  Wire.varint enc (Array.length u.groups);
  Array.iter
    (fun (g : Block.group) ->
      encode_captures enc g.grp_captures;
      Wire.varint enc (Array.length g.grp_classes);
      Array.iter
        (fun (c : Block.class_sig) ->
          Wire.string enc c.cls_name;
          Wire.varint enc c.cls_block;
          Wire.varint enc c.cls_nparams)
        g.grp_classes;
      encode_captures enc g.grp_slots)
    u.groups;
  Wire.varint enc u.entry

let decode_unit dec : Block.unit_ =
  let nblocks = Wire.read_count dec in
  let blocks =
    Array.init nblocks (fun blk_id ->
        let blk_name = Wire.read_string dec in
        let blk_nparams = Wire.read_varint dec in
        let blk_nslots = Wire.read_varint dec in
        (* a frame is allocated whole at every spawn of the block *)
        if blk_nslots < 0 || blk_nslots > Block.max_slots then
          malformed "block b%d: %d frame slots (at most %d)" blk_id
            blk_nslots Block.max_slots;
        if blk_nparams < 0 || blk_nparams > blk_nslots then
          malformed "block b%d: %d parameters in %d slots" blk_id blk_nparams
            blk_nslots;
        let ninstrs = Wire.read_count dec in
        let blk_code = Array.init ninstrs (fun _ -> decode_instr dec) in
        { Block.blk_id; blk_name; blk_nparams; blk_nslots; blk_code })
  in
  let nmts = Wire.read_count dec in
  let mtables =
    Array.init nmts (fun mt_id ->
        let mt_captures = decode_captures dec in
        let n = Wire.read_count dec in
        let mt_entries =
          Array.init n (fun _ ->
              let me_label = Wire.read_string dec in
              let me_block = Wire.read_varint dec in
              let me_nparams = Wire.read_varint dec in
              { Block.me_label; me_block; me_nparams })
        in
        { Block.mt_id; mt_captures; mt_entries })
  in
  let ngroups = Wire.read_count dec in
  let groups =
    Array.init ngroups (fun grp_id ->
        let grp_captures = decode_captures dec in
        let n = Wire.read_count dec in
        let grp_classes =
          Array.init n (fun _ ->
              let cls_name = Wire.read_string dec in
              let cls_block = Wire.read_varint dec in
              let cls_nparams = Wire.read_varint dec in
              { Block.cls_name; cls_block; cls_nparams })
        in
        let grp_slots = decode_captures dec in
        { Block.grp_id; grp_captures; grp_classes; grp_slots })
  in
  let entry = Wire.read_varint dec in
  let u = { Block.blocks; mtables; groups; entry } in
  (* Dynamic checking of incoming code: every cross-reference, jump
     target and frame slot must be in range (paper §7's protocol-error
     detection), so the VM never indexes outside a block or a frame.
     Method-table and group captures index the frame of the block that
     runs the [trobj]/[defgroup].  Jumps must also go forward, as the
     compiler's do (threads loop only by instantiating a class again):
     a backward jump would let a peer send a thread that never ends. *)
  let check_block i =
    if i < 0 || i >= nblocks then malformed "block reference b%d out of range" i
  in
  if nblocks = 0 then malformed "unit with no blocks";
  check_block entry;
  Array.iter
    (fun (b : Block.block) ->
      let ninstrs = Array.length b.blk_code in
      let slot s =
        if s < 0 || s >= b.blk_nslots then
          malformed "slot %d out of range in block b%d (%d slots)" s b.blk_id
            b.blk_nslots
      in
      let target ~at pc =
        if pc <= at || pc > ninstrs then
          malformed
            "jump target %d at pc %d out of range in block b%d (%d instructions)"
            pc at b.blk_id ninstrs
      in
      let argc n = if n < 0 then malformed "negative argument count %d" n in
      Array.iteri
        (fun at -> function
          | Instr.Load s | Instr.Store s | Instr.New_chan s
          | Instr.Export_class (_, s) ->
              slot s
          | Instr.Jump pc | Instr.Jump_if_false pc -> target ~at pc
          | Instr.Trmsg { argc = n; _ } | Instr.Instof n -> argc n
          | Instr.Trobj mt ->
              if mt < 0 || mt >= nmts then
                malformed "mtable reference out of range";
              Array.iter slot mtables.(mt).Block.mt_captures
          | Instr.Defgroup g ->
              if g < 0 || g >= ngroups then
                malformed "group reference out of range";
              let grp = groups.(g) in
              if Array.length grp.Block.grp_slots
                 <> Array.length grp.Block.grp_classes
              then malformed "group g%d: slot and class counts differ" g;
              Array.iter slot grp.Block.grp_captures;
              Array.iter slot grp.Block.grp_slots
          | Instr.Import_name { cont; captures; _ }
          | Instr.Import_class { cont; captures; _ } ->
              check_block cont;
              Array.iter slot captures
          | Instr.Push_int _ | Instr.Push_bool _ | Instr.Push_str _
          | Instr.Binop _ | Instr.Unop _ | Instr.Export_name _ ->
              ())
        b.blk_code)
    blocks;
  Array.iter
    (fun (mt : Block.mtable) ->
      Array.iter (fun (e : Block.mentry) -> check_block e.me_block) mt.mt_entries)
    mtables;
  Array.iter
    (fun (g : Block.group) ->
      Array.iter
        (fun (c : Block.class_sig) -> check_block c.cls_block)
        g.grp_classes)
    groups;
  u

let unit_to_string u =
  let enc = Wire.encoder () in
  encode_unit enc u;
  Wire.to_string enc

let unit_of_string s = decode_unit (Wire.decoder s)
let byte_size u = String.length (unit_to_string u)

(* ------------------------------------------------------------------ *)
(* Sub-unit extraction for mobility.                                   *)

let remap_instr ~blk_map ~mt_map ~grp_map (ins : Instr.t) : Instr.t =
  match ins with
  | Instr.Trobj mt -> Instr.Trobj (mt_map mt)
  | Instr.Defgroup g -> Instr.Defgroup (grp_map g)
  | Instr.Import_name r -> Instr.Import_name { r with cont = blk_map r.cont }
  | Instr.Import_class r -> Instr.Import_class { r with cont = blk_map r.cont }
  | _ -> ins

let extract (u : Block.unit_) (sub : Block.subset) =
  let index xs = List.mapi (fun i x -> (x, i)) xs in
  let bmap = index sub.sub_blocks in
  let mmap = index sub.sub_mtables in
  let gmap = index sub.sub_groups in
  let blk_map i = List.assoc i bmap in
  let mt_map i = List.assoc i mmap in
  let grp_map i = List.assoc i gmap in
  let blocks =
    Array.of_list
      (List.mapi
         (fun new_id old_id ->
           let b = u.blocks.(old_id) in
           { b with
             Block.blk_id = new_id;
             blk_code =
               Array.map (remap_instr ~blk_map ~mt_map ~grp_map) b.blk_code })
         sub.sub_blocks)
  in
  let mtables =
    Array.of_list
      (List.mapi
         (fun new_id old_id ->
           let mt = u.mtables.(old_id) in
           { mt with
             Block.mt_id = new_id;
             mt_entries =
               Array.map
                 (fun (e : Block.mentry) ->
                   { e with Block.me_block = blk_map e.me_block })
                 mt.mt_entries })
         sub.sub_mtables)
  in
  let groups =
    Array.of_list
      (List.mapi
         (fun new_id old_id ->
           let g = u.groups.(old_id) in
           { g with
             Block.grp_id = new_id;
             grp_classes =
               Array.map
                 (fun (c : Block.class_sig) ->
                   { c with Block.cls_block = blk_map c.cls_block })
                 g.grp_classes })
         sub.sub_groups)
  in
  ({ Block.blocks; mtables; groups; entry = 0 }, blk_map, mt_map, grp_map)

let extract_mtable u mt =
  let sub = Block.closure_of_mtable u mt in
  let sub_unit, _, mt_map, _ = extract u sub in
  (sub_unit, mt_map mt)

let extract_group u g =
  let sub = Block.closure_of_group u g in
  let sub_unit, _, _, grp_map = extract u sub in
  (sub_unit, grp_map g)
