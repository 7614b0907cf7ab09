type mentry = { me_label : string; me_block : int; me_nparams : int }
type mtable = { mt_id : int; mt_captures : int array; mt_entries : mentry array }
type class_sig = { cls_name : string; cls_block : int; cls_nparams : int }

type group = {
  grp_id : int;
  grp_captures : int array;
  grp_classes : class_sig array;
  grp_slots : int array;
}

type block = {
  blk_id : int;
  blk_name : string;
  blk_nparams : int;
  blk_nslots : int;
  blk_code : Instr.t array;
}

type unit_ = {
  blocks : block array;
  mtables : mtable array;
  groups : group array;
  entry : int;
}

let max_slots = 1 lsl 16

let instr_count u =
  Array.fold_left (fun n b -> n + Array.length b.blk_code) 0 u.blocks

let pp ppf u =
  Format.fprintf ppf "@[<v>unit: %d block(s), %d mtable(s), %d group(s), entry=b%d@ "
    (Array.length u.blocks) (Array.length u.mtables) (Array.length u.groups)
    u.entry;
  Array.iter
    (fun b ->
      Format.fprintf ppf "@[<v 2>block b%d %s (params=%d slots=%d):@ "
        b.blk_id b.blk_name b.blk_nparams b.blk_nslots;
      Array.iteri
        (fun i ins -> Format.fprintf ppf "%3d: %a@ " i Instr.pp ins)
        b.blk_code;
      Format.fprintf ppf "@]@ ")
    u.blocks;
  Array.iter
    (fun mt ->
      Format.fprintf ppf "mtable mt%d caps=%d: %s@ " mt.mt_id
        (Array.length mt.mt_captures)
        (String.concat ", "
           (Array.to_list
              (Array.map
                 (fun e -> Printf.sprintf "%s->b%d/%d" e.me_label e.me_block e.me_nparams)
                 mt.mt_entries))))
    u.mtables;
  Array.iter
    (fun g ->
      Format.fprintf ppf "group g%d caps=%d: %s@ " g.grp_id
        (Array.length g.grp_captures)
        (String.concat ", "
           (Array.to_list
              (Array.map
                 (fun c -> Printf.sprintf "%s->b%d/%d" c.cls_name c.cls_block c.cls_nparams)
                 g.grp_classes))))
    u.groups;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Transitive code closure, for mobility.                              *)

type subset = { sub_blocks : int list; sub_mtables : int list; sub_groups : int list }

module ISet = Set.Make (Int)

type walk = {
  mutable wblocks : ISet.t;
  mutable wmtables : ISet.t;
  mutable wgroups : ISet.t;
}

let rec walk_block u w bid =
  if not (ISet.mem bid w.wblocks) then begin
    w.wblocks <- ISet.add bid w.wblocks;
    Array.iter
      (function
        | Instr.Trobj mt -> walk_mtable u w mt
        | Instr.Defgroup g -> walk_group u w g
        | Instr.Import_name { cont; _ } | Instr.Import_class { cont; _ } ->
            walk_block u w cont
        | Instr.Push_int _ | Instr.Push_bool _ | Instr.Push_str _
        | Instr.Load _ | Instr.Store _ | Instr.Binop _ | Instr.Unop _
        | Instr.Jump _ | Instr.Jump_if_false _ | Instr.New_chan _
        | Instr.Trmsg _ | Instr.Instof _ | Instr.Export_name _
        | Instr.Export_class _ ->
            ())
      u.blocks.(bid).blk_code
  end

and walk_mtable u w mt =
  if not (ISet.mem mt w.wmtables) then begin
    w.wmtables <- ISet.add mt w.wmtables;
    Array.iter (fun e -> walk_block u w e.me_block) u.mtables.(mt).mt_entries
  end

and walk_group u w g =
  if not (ISet.mem g w.wgroups) then begin
    w.wgroups <- ISet.add g w.wgroups;
    Array.iter (fun c -> walk_block u w c.cls_block) u.groups.(g).grp_classes
  end

let finish w =
  { sub_blocks = ISet.elements w.wblocks;
    sub_mtables = ISet.elements w.wmtables;
    sub_groups = ISet.elements w.wgroups }

let closure_of_mtable u mt =
  let w = { wblocks = ISet.empty; wmtables = ISet.empty; wgroups = ISet.empty } in
  walk_mtable u w mt;
  finish w

let closure_of_group u g =
  let w = { wblocks = ISet.empty; wmtables = ISet.empty; wgroups = ISet.empty } in
  walk_group u w g;
  finish w
