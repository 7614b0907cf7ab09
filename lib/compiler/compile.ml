module Ast = Tyco_syntax.Ast
module Loc = Tyco_syntax.Loc
module Vec = Tyco_support.Vec

exception Error of string

let fail fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

module SMap = Map.Make (String)

type env = { names : int SMap.t; classes : int SMap.t }

type builder = {
  name : string;
  nparams : int;
  mutable nslots : int;
  mutable code : Instr.t list; (* reversed *)
  mutable len : int;
}

type state = {
  blocks : Block.block option Vec.t;
  mtables : Block.mtable Vec.t;
  groups : Block.group Vec.t;
}

let new_builder name nparams =
  { name; nparams; nslots = nparams; code = []; len = 0 }

let emit b ins =
  b.code <- ins :: b.code;
  b.len <- b.len + 1

let alloc_slot b =
  let s = b.nslots in
  b.nslots <- s + 1;
  s

let reserve_block st =
  Vec.push st.blocks None

let finish_block st id b =
  if b.nslots > Block.max_slots then
    fail "block %s needs %d frame slots (at most %d)" b.name b.nslots
      Block.max_slots;
  let blk =
    { Block.blk_id = id;
      blk_name = b.name;
      blk_nparams = b.nparams;
      blk_nslots = b.nslots;
      blk_code = Array.of_list (List.rev b.code) }
  in
  Vec.set st.blocks id (Some blk)

let lookup_name env x =
  match SMap.find_opt x env.names with
  | Some s -> s
  | None -> fail "unbound name '%s' (compile)" x

let lookup_class env x =
  match SMap.find_opt x env.classes with
  | Some s -> s
  | None -> fail "unbound class '%s' (compile)" x

(* Captured identifiers of a set of bodies: the free names and free
   classes, minus the binders, in deterministic first-occurrence
   order. *)
let captured_of_bodies bodies params group_names =
  let dedup xs =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.add seen x ();
          true
        end)
      xs
  in
  let names =
    dedup
      (List.concat_map
         (fun (body, ps) ->
           List.filter (fun x -> not (List.mem x ps)) (Ast.free_names body))
         (List.combine bodies params))
  in
  let classes =
    dedup
      (List.concat_map
         (fun body ->
           List.filter
             (fun x -> not (List.mem x group_names))
             (Ast.free_classes body))
         bodies)
  in
  (names, classes)

let rec compile_expr st b env (e : Ast.expr) =
  match e.Loc.it with
  | Ast.Evar x -> emit b (Instr.Load (lookup_name env x))
  | Ast.Eint n -> emit b (Instr.Push_int n)
  | Ast.Ebool v -> emit b (Instr.Push_bool v)
  | Ast.Estr s -> emit b (Instr.Push_str s)
  | Ast.Ebin (op, x, y) ->
      compile_expr st b env x;
      compile_expr st b env y;
      emit b (Instr.Binop op)
  | Ast.Eun (op, x) ->
      compile_expr st b env x;
      emit b (Instr.Unop op)

(* Compile the shared pieces of an object: returns the method table id.
   The closure environment is [captured names..][captured classes..]. *)
and compile_methods st env (ms : Ast.method_ list) =
  let bodies = List.map (fun (m : Ast.method_) -> m.m_body) ms in
  let params = List.map (fun (m : Ast.method_) -> m.m_params) ms in
  let cap_names, cap_classes = captured_of_bodies bodies params [] in
  let captures =
    Array.of_list
      (List.map (lookup_name env) cap_names
      @ List.map (lookup_class env) cap_classes)
  in
  let entries =
    List.map
      (fun (m : Ast.method_) ->
        let bid = reserve_block st in
        let nparams = List.length m.m_params in
        let mb = new_builder (Printf.sprintf "method:%s" m.m_label) nparams in
        (* params .. captured names .. captured classes *)
        mb.nslots <- nparams + Array.length captures;
        let menv =
          let names =
            List.fold_left
              (fun (i, acc) x -> (i + 1, SMap.add x i acc))
              (0, SMap.empty) m.m_params
            |> snd
          in
          let names, i =
            List.fold_left
              (fun (acc, i) x -> (SMap.add x i acc, i + 1))
              (names, nparams) cap_names
          in
          let classes, _ =
            List.fold_left
              (fun (acc, i) x -> (SMap.add x i acc, i + 1))
              (SMap.empty, i) cap_classes
          in
          { names; classes }
        in
        compile st mb menv m.m_body;
        finish_block st bid mb;
        { Block.me_label = m.m_label; me_block = bid; me_nparams = nparams })
      ms
  in
  let mt_id = Vec.length st.mtables in
  ignore
    (Vec.push st.mtables
       { Block.mt_id; mt_captures = captures; mt_entries = Array.of_list entries });
  mt_id

(* Compile a definition group; returns (group id, class name -> creating
   frame slot).  Class body frame: [params..][captured names..]
   [captured classes..][group class values..]. *)
and compile_group st b env (ds : Ast.defn list) =
  let group_names = List.map (fun (d : Ast.defn) -> d.d_name) ds in
  let bodies = List.map (fun (d : Ast.defn) -> d.d_body) ds in
  let params = List.map (fun (d : Ast.defn) -> d.d_params) ds in
  let cap_names, cap_classes = captured_of_bodies bodies params group_names in
  let captures =
    Array.of_list
      (List.map (lookup_name env) cap_names
      @ List.map (lookup_class env) cap_classes)
  in
  let ncap = Array.length captures in
  let classes =
    List.map
      (fun (d : Ast.defn) ->
        let bid = reserve_block st in
        let nparams = List.length d.d_params in
        let cb = new_builder (Printf.sprintf "class:%s" d.d_name) nparams in
        cb.nslots <- nparams + ncap + List.length group_names;
        let cenv =
          let names =
            List.fold_left
              (fun (i, acc) x -> (i + 1, SMap.add x i acc))
              (0, SMap.empty) d.d_params
            |> snd
          in
          let names, i =
            List.fold_left
              (fun (acc, i) x -> (SMap.add x i acc, i + 1))
              (names, nparams) cap_names
          in
          let cls, i =
            List.fold_left
              (fun (acc, i) x -> (SMap.add x i acc, i + 1))
              (SMap.empty, i) cap_classes
          in
          let cls, _ =
            List.fold_left
              (fun (acc, i) x -> (SMap.add x i acc, i + 1))
              (cls, i) group_names
          in
          { names; classes = cls }
        in
        compile st cb cenv d.d_body;
        finish_block st bid cb;
        { Block.cls_name = d.d_name;
          cls_block = bid;
          cls_nparams = nparams })
      ds
  in
  let slots = List.map (fun _ -> alloc_slot b) ds in
  let grp_id = Vec.length st.groups in
  ignore
    (Vec.push st.groups
       { Block.grp_id;
         grp_captures = captures;
         grp_classes = Array.of_list classes;
         grp_slots = Array.of_list slots });
  emit b (Instr.Defgroup grp_id);
  (grp_id, List.combine group_names slots)

and compile st b env (p : Ast.proc) : unit =
  match p.Loc.it with
  | Ast.Pnil -> ()
  | Ast.Ppar (x, y) ->
      compile st b env x;
      compile st b env y
  | Ast.Pnew (xs, q) ->
      let env =
        List.fold_left
          (fun env x ->
            let s = alloc_slot b in
            emit b (Instr.New_chan s);
            { env with names = SMap.add x s env.names })
          env xs
      in
      compile st b env q
  | Ast.Pmsg (x, l, es) ->
      List.iter (compile_expr st b env) es;
      emit b (Instr.Load (lookup_name env x));
      emit b (Instr.Trmsg { label = l; lid = -1; argc = List.length es })
  | Ast.Pobj (x, ms) ->
      let mt = compile_methods st env ms in
      emit b (Instr.Load (lookup_name env x));
      emit b (Instr.Trobj mt)
  | Ast.Pinst (xc, es) ->
      List.iter (compile_expr st b env) es;
      emit b (Instr.Load (lookup_class env xc));
      emit b (Instr.Instof (List.length es))
  | Ast.Pdef (ds, q) ->
      let _gid, slots = compile_group st b env ds in
      let env =
        List.fold_left
          (fun env (x, s) -> { env with classes = SMap.add x s env.classes })
          env slots
      in
      compile st b env q
  | Ast.Pif (e, x, y) ->
      compile_expr st b env e;
      let jf_at = b.len in
      emit b (Instr.Jump_if_false 0);
      compile st b env x;
      let j_at = b.len in
      emit b (Instr.Jump 0);
      let else_target = b.len in
      compile st b env y;
      let end_target = b.len in
      (* patch: code list is reversed; rebuild via array at finish is
         simpler, so patch by index from the end *)
      patch b jf_at (Instr.Jump_if_false else_target);
      patch b j_at (Instr.Jump end_target)
  | Ast.Plet _ -> fail "internal: 'let' must be desugared before compiling"
  | Ast.Pexport_new (xs, q) ->
      let env =
        List.fold_left
          (fun env x ->
            let s = alloc_slot b in
            emit b (Instr.New_chan s);
            emit b (Instr.Load s);
            emit b (Instr.Export_name x);
            { env with names = SMap.add x s env.names })
          env xs
      in
      compile st b env q
  | Ast.Pexport_def (ds, q) ->
      let _gid, slots = compile_group st b env ds in
      List.iter (fun (x, s) -> emit b (Instr.Export_class (x, s))) slots;
      let env =
        List.fold_left
          (fun env (x, s) -> { env with classes = SMap.add x s env.classes })
          env slots
      in
      compile st b env q
  | Ast.Pimport_name (x, site, q) ->
      compile_import st b env ~is_class:false ~binder:x ~site q
  | Ast.Pimport_class (x, site, q) ->
      compile_import st b env ~is_class:true ~binder:x ~site q

(* The continuation of an import runs as a fresh thread when the name
   service reply arrives: block layout [imported value][captured..]. *)
and compile_import st b env ~is_class ~binder ~site q =
  let cap_names =
    List.filter (fun y -> is_class || y <> binder) (Ast.free_names q)
  in
  let cap_classes =
    List.filter (fun y -> (not is_class) || y <> binder) (Ast.free_classes q)
  in
  List.iter
    (fun y ->
      if not (SMap.mem y env.names) then
        fail "unbound name '%s' (compile, import continuation)" y)
    cap_names;
  List.iter
    (fun y ->
      if not (SMap.mem y env.classes) then
        fail "unbound class '%s' (compile, import continuation)" y)
    cap_classes;
  let captures =
    Array.of_list
      (List.map (lookup_name env) cap_names
      @ List.map (lookup_class env) cap_classes)
  in
  let bid = reserve_block st in
  let cb = new_builder (Printf.sprintf "import:%s.%s" site binder) 1 in
  cb.nslots <- 1 + Array.length captures;
  let cenv =
    let base_names = if is_class then SMap.empty else SMap.singleton binder 0 in
    let base_classes = if is_class then SMap.singleton binder 0 else SMap.empty in
    let names, i =
      List.fold_left
        (fun (acc, i) y -> (SMap.add y i acc, i + 1))
        (base_names, 1) cap_names
    in
    let classes, _ =
      List.fold_left
        (fun (acc, i) y -> (SMap.add y i acc, i + 1))
        (base_classes, i) cap_classes
    in
    { names; classes }
  in
  compile st cb cenv q;
  finish_block st bid cb;
  if is_class then
    emit b (Instr.Import_class { site; name = binder; cont = bid; captures })
  else emit b (Instr.Import_name { site; name = binder; cont = bid; captures })

and patch b idx ins =
  (* b.code is reversed: element at emission index i lives at position
     (len - 1 - i) from the head *)
  let pos = b.len - 1 - idx in
  b.code <- List.mapi (fun i x -> if i = pos then ins else x) b.code

let compile_proc ?(optimize = true) (p : Ast.proc) : Block.unit_ =
  let p = Tyco_syntax.Sugar.desugar p in
  let st = { blocks = Vec.create (); mtables = Vec.create (); groups = Vec.create () } in
  let entry = reserve_block st in
  let b = new_builder "entry" 1 in
  let env = { names = SMap.singleton "io" 0; classes = SMap.empty } in
  compile st b env p;
  finish_block st entry b;
  { Block.blocks =
      Array.of_list
        (List.map
           (function Some blk -> blk | None -> assert false)
           (Vec.to_list st.blocks));
    mtables = Array.of_list (Vec.to_list st.mtables);
    groups = Array.of_list (Vec.to_list st.groups);
    entry }
  |> fun u -> if optimize then Peephole.unit_ u else u

let compile_program ?optimize (prog : Ast.program) =
  List.map
    (fun (s : Ast.site_decl) -> (s.s_name, compile_proc ?optimize s.s_proc))
    prog.sites
