open Tyco_syntax

type error = { msg : string; loc : Loc.t }

exception Error of error

let pp_error ppf e = Format.fprintf ppf "%a: %s" Loc.pp e.loc e.msg
let err loc fmt = Format.kasprintf (fun msg -> raise (Error { msg; loc })) fmt

module SMap = Map.Make (String)

type class_binding =
  | Local of Ty.scheme
  | Imported of string * string  (* exporting site, class name *)

type env = {
  names : Ty.ty SMap.t;
  classes : class_binding SMap.t;
}

type global = {
  ctx : Ty.ctx;
  export_names : (string * string, Ty.ty) Hashtbl.t;
  export_classes : (string * string, Ty.scheme) Hashtbl.t;
  (* Deferred instantiations of imported classes: checked in pass 2. *)
  mutable deferred : (Loc.t * string * string * Ty.ty list) list;
}

let io_channel_type ctx =
  Ty.chan_of_methods ctx
    [ ("print", [ Ty.str ctx ]);
      ("printi", [ Ty.int_ ctx ]);
      ("printb", [ Ty.bool_ ctx ]);
      (* input: io!readi[k] replies k![n] with the next integer the
         user supplied to this site's I/O port (paper §5: "users may
         selectively provide data to running programs") *)
      ("readi", [ Ty.chan_of_methods ctx [ ("val", [ Ty.int_ ctx ]) ] ]) ]

(* The shared placeholder type for an exported/imported name: created on
   first mention from either side, then refined by unification. *)
let export_name_ty g site name =
  match Hashtbl.find_opt g.export_names (site, name) with
  | Some t -> t
  | None ->
      let t = Ty.fresh_var g.ctx in
      Hashtbl.add g.export_names (site, name) t;
      t

let lookup_name env loc x =
  match SMap.find_opt x env.names with
  | Some t -> t
  | None -> err loc "unbound name '%s'" x

(* Everything a generalization must treat as monomorphic: the channel
   types in scope plus the parameter types of every class scheme in
   scope (their unquantified parts may not be reachable from names). *)
let env_types env =
  SMap.fold (fun _ t acc -> t :: acc) env.names
    (SMap.fold
       (fun _ c acc ->
         match c with
         | Local scheme -> Ty.scheme_params scheme @ acc
         | Imported _ -> acc)
       env.classes [])

let rec infer_expr env g (e : Ast.expr) : Ty.ty =
  let ctx = g.ctx in
  match e.Loc.it with
  | Ast.Evar x -> lookup_name env e.Loc.at x
  | Ast.Eint _ -> Ty.int_ ctx
  | Ast.Ebool _ -> Ty.bool_ ctx
  | Ast.Estr _ -> Ty.str ctx
  | Ast.Eun (Ast.Neg, a) ->
      unify_at g e.Loc.at (infer_expr env g a) (Ty.int_ ctx);
      Ty.int_ ctx
  | Ast.Eun (Ast.Not, a) ->
      unify_at g e.Loc.at (infer_expr env g a) (Ty.bool_ ctx);
      Ty.bool_ ctx
  | Ast.Ebin (op, a, b) -> (
      let ta = infer_expr env g a and tb = infer_expr env g b in
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
          unify_at g a.Loc.at ta (Ty.int_ ctx);
          unify_at g b.Loc.at tb (Ty.int_ ctx);
          Ty.int_ ctx
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
          unify_at g a.Loc.at ta (Ty.int_ ctx);
          unify_at g b.Loc.at tb (Ty.int_ ctx);
          Ty.bool_ ctx
      | Ast.Eq | Ast.Neq ->
          unify_at g e.Loc.at ta tb;
          Ty.bool_ ctx
      | Ast.And | Ast.Or ->
          unify_at g a.Loc.at ta (Ty.bool_ ctx);
          unify_at g b.Loc.at tb (Ty.bool_ ctx);
          Ty.bool_ ctx)

and unify_at g loc t1 t2 =
  try Ty.unify g.ctx t1 t2 with Ty.Clash msg -> err loc "%s" msg

let check_distinct loc what xs =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun x ->
      if Hashtbl.mem seen x then err loc "duplicate %s '%s'" what x;
      Hashtbl.add seen x ())
    xs

(* [check_site] takes the site-level constructs; [check] meets one only
   below an object, a definition or a conditional. *)
let nested loc what =
  err loc
    "'%s' is allowed only at site level, not inside a method, a definition \
     body or a branch"
    what

(* Bind the classes of a [def] block: fresh parameter types, bodies
   checked under monomorphic recursion, then everything generalized
   against the outer environment. *)
let rec check_def env g loc (ds : Ast.defn list) ~exported ~site =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (d : Ast.defn) ->
      if Hashtbl.mem seen d.d_name then
        err loc "duplicate class '%s' in def" d.d_name;
      Hashtbl.add seen d.d_name ())
    ds;
  let params_tys =
    List.map
      (fun (d : Ast.defn) ->
        check_distinct loc "parameter" d.d_params;
        List.map (fun _ -> Ty.fresh_var g.ctx) d.d_params)
      ds
  in
  let env_rec =
    List.fold_left2
      (fun env (d : Ast.defn) tys ->
        { env with classes = SMap.add d.d_name (Local (Ty.mono tys)) env.classes })
      env ds params_tys
  in
  List.iter2
    (fun (d : Ast.defn) tys ->
      let env_body =
        List.fold_left2
          (fun env x t -> { env with names = SMap.add x t env.names })
          env_rec d.d_params tys
      in
      check env_body g d.d_body)
    ds params_tys;
  let outer_tys = env_types env in
  let env' =
    List.fold_left2
      (fun envacc (d : Ast.defn) tys ->
        let scheme = Ty.generalize g.ctx ~env_tys:outer_tys tys in
        if exported then
          Hashtbl.replace g.export_classes (site, d.d_name) scheme;
        { envacc with classes = SMap.add d.d_name (Local scheme) envacc.classes })
      env ds params_tys
  in
  env'

and check env g (p : Ast.proc) : unit =
  let ctx = g.ctx in
  let loc = p.Loc.at in
  match p.Loc.it with
  | Ast.Pnil -> ()
  | Ast.Ppar (a, b) ->
      check env g a;
      check env g b
  | Ast.Pnew (xs, q) ->
      let env =
        List.fold_left
          (fun env x ->
            let t = Ty.chan ctx (Ty.fresh_rvar ctx) in
            { env with names = SMap.add x t env.names })
          env xs
      in
      check env g q
  | Ast.Pmsg (x, l, es) ->
      let tx = lookup_name env loc x in
      let arg_tys = List.map (infer_expr env g) es in
      let want = Ty.chan ctx (Ty.rcons ctx l arg_tys (Ty.fresh_rvar ctx)) in
      unify_at g loc tx want
  | Ast.Pobj (x, ms) ->
      let tx = lookup_name env loc x in
      let seen = Hashtbl.create 8 in
      let methods =
        List.map
          (fun (m : Ast.method_) ->
            if Hashtbl.mem seen m.m_label then
              err loc "duplicate method '%s' in object at '%s'" m.m_label x;
            Hashtbl.add seen m.m_label ();
            check_distinct loc "parameter" m.m_params;
            (m, List.map (fun _ -> Ty.fresh_var ctx) m.m_params))
          ms
      in
      (* Objects determine the full interface of their channel: the row
         is closed (exact record types, as in TyCO). *)
      let row =
        List.fold_right
          (fun ((m : Ast.method_), tys) rest ->
            Ty.rcons ctx m.m_label tys rest)
          methods (Ty.rempty ctx)
      in
      unify_at g loc tx (Ty.chan ctx row);
      List.iter
        (fun ((m : Ast.method_), tys) ->
          let env_body =
            List.fold_left2
              (fun env x t -> { env with names = SMap.add x t env.names })
              env m.m_params tys
          in
          check env_body g m.m_body)
        methods
  | Ast.Pinst (xc, es) -> (
      let arg_tys = List.map (infer_expr env g) es in
      match SMap.find_opt xc env.classes with
      | None -> err loc "unbound class '%s'" xc
      | Some (Local scheme) ->
          if Ty.scheme_arity scheme <> List.length arg_tys then
            err loc "class '%s' expects %d argument(s), got %d" xc
              (Ty.scheme_arity scheme) (List.length arg_tys);
          let tys = Ty.instantiate ctx scheme in
          List.iter2 (unify_at g loc) tys arg_tys
      | Some (Imported (site, name)) ->
          g.deferred <- (loc, site, name, arg_tys) :: g.deferred)
  | Ast.Pdef (ds, q) ->
      let env = check_def env g loc ds ~exported:false ~site:"" in
      check env g q
  | Ast.Pif (e, a, b) ->
      unify_at g loc (infer_expr env g e) (Ty.bool_ ctx);
      check env g a;
      check env g b
  | Ast.Plet _ -> err loc "internal: 'let' must be desugared before inference"
  | Ast.Pexport_new _ -> nested loc "export new"
  | Ast.Pexport_def _ -> nested loc "export def"
  | Ast.Pimport_name _ | Ast.Pimport_class _ -> nested loc "import"

(* Site-level checking handles export/import, which are only meaningful
   at the top of a site body (they translate to network-level binders,
   paper §4).  We accept them at any prefix position within the body,
   matching the paper's examples. *)
let rec check_site env g ~site (p : Ast.proc) : unit =
  let loc = p.Loc.at in
  match p.Loc.it with
  | Ast.Pexport_new (xs, q) ->
      let env =
        List.fold_left
          (fun env x ->
            let t = Ty.chan g.ctx (Ty.fresh_rvar g.ctx) in
            unify_at g loc t (export_name_ty g site x);
            { env with names = SMap.add x t env.names })
          env xs
      in
      check_site env g ~site q
  | Ast.Pexport_def (ds, q) ->
      let env = check_def env g loc ds ~exported:true ~site in
      check_site env g ~site q
  | Ast.Pimport_name (x, s, q) ->
      let t = export_name_ty g s x in
      check_site { env with names = SMap.add x t env.names } g ~site q
  | Ast.Pimport_class (xc, s, q) ->
      check_site
        { env with classes = SMap.add xc (Imported (s, xc)) env.classes }
        g ~site q
  | Ast.Ppar (a, b) ->
      check_site env g ~site a;
      check_site env g ~site b
  | Ast.Pnew (xs, q) ->
      let env =
        List.fold_left
          (fun env x ->
            { env with
              names = SMap.add x (Ty.chan g.ctx (Ty.fresh_rvar g.ctx)) env.names })
          env xs
      in
      check_site env g ~site q
  | Ast.Pdef (ds, q) ->
      let env = check_def env g loc ds ~exported:false ~site in
      check_site env g ~site q
  | Ast.Pnil | Ast.Pmsg _ | Ast.Pobj _ | Ast.Pinst _ | Ast.Pif _ | Ast.Plet _
    ->
      check env g p

type info = {
  ctx : Ty.ctx;
  export_name_types : ((string * string) * Ty.ty) list;
  export_class_types : ((string * string) * Ty.scheme) list;
  name_types : ((string * string) * Ty.ty) list;
}

type site_info = {
  export_name_rtti : (string * Rtti.t) list;
  export_class_rtti : (string * Rtti.t) list;
  import_name_expect : ((string * string) * Rtti.t) list;
  import_class_expect : ((string * string) * Rtti.t) list;
}

(* Per-site inference for separately checked sites (the static half of
   the paper's combined scheme; the descriptors feed the dynamic
   half).  Imports are checked only against their local usage; the
   resulting constraint is snapshotted as the import's expectation. *)
let check_site_isolated (sd : Ast.site_decl) : site_info =
  let sd =
    { sd with Ast.s_proc = Sugar.desugar sd.Ast.s_proc }
  in
  let ctx = Ty.ctx () in
  let g =
    { ctx;
      export_names = Hashtbl.create 16;
      export_classes = Hashtbl.create 16;
      deferred = [] }
  in
  let env =
    { names = SMap.add "io" (io_channel_type ctx) SMap.empty;
      classes = SMap.empty }
  in
  check_site env g ~site:sd.Ast.s_name sd.Ast.s_proc;
  (* deferred instantiations against locally exported classes are
     checked; foreign ones become expectations *)
  let foreign_class_expect = ref [] in
  List.iter
    (fun (loc, site, name, arg_tys) ->
      match Hashtbl.find_opt g.export_classes (site, name) with
      | Some scheme when String.equal site sd.Ast.s_name ->
          if Ty.scheme_arity scheme <> List.length arg_tys then
            err loc "class '%s.%s' expects %d argument(s), got %d" site name
              (Ty.scheme_arity scheme) (List.length arg_tys);
          let tys = Ty.instantiate ctx scheme in
          List.iter2 (unify_at g loc) tys arg_tys
      | _ ->
          foreign_class_expect :=
            ((site, name), Rtti.of_tys arg_tys) :: !foreign_class_expect)
    (List.rev g.deferred);
  let export_name_rtti =
    Hashtbl.fold
      (fun (site, name) t acc ->
        if String.equal site sd.Ast.s_name then (name, Rtti.of_ty t) :: acc
        else acc)
      g.export_names []
  in
  let import_name_expect =
    Hashtbl.fold
      (fun (site, name) t acc ->
        if String.equal site sd.Ast.s_name then acc
        else ((site, name), Rtti.of_ty t) :: acc)
      g.export_names []
  in
  let export_class_rtti =
    Hashtbl.fold
      (fun (site, name) scheme acc ->
        if String.equal site sd.Ast.s_name then
          (name, Rtti.of_tys (Ty.instantiate ctx scheme)) :: acc
        else acc)
      g.export_classes []
  in
  { export_name_rtti;
    export_class_rtti;
    import_name_expect;
    import_class_expect = !foreign_class_expect }

let check_program (prog : Ast.program) : info =
  let prog = Sugar.desugar_program prog in
  let ctx = Ty.ctx () in
  let g =
    { ctx;
      export_names = Hashtbl.create 16;
      export_classes = Hashtbl.create 16;
      deferred = [] }
  in
  let base_env site =
    ignore site;
    { names = SMap.add "io" (io_channel_type ctx) SMap.empty;
      classes = SMap.empty }
  in
  List.iter
    (fun (s : Ast.site_decl) ->
      check_site (base_env s.s_name) g ~site:s.s_name s.s_proc)
    prog.sites;
  (* Pass 2: imported-class instantiations against the now-generalized
     exporter schemes. *)
  List.iter
    (fun (loc, site, name, arg_tys) ->
      match Hashtbl.find_opt g.export_classes (site, name) with
      | None -> err loc "site '%s' does not export class '%s'" site name
      | Some scheme ->
          if Ty.scheme_arity scheme <> List.length arg_tys then
            err loc "class '%s.%s' expects %d argument(s), got %d" site name
              (Ty.scheme_arity scheme) (List.length arg_tys);
          let tys = Ty.instantiate ctx scheme in
          List.iter2 (unify_at g loc) tys arg_tys)
    (List.rev g.deferred);
  (* Any (site, name) placeholder whose site never exported it is an
     unresolved import. *)
  let exported_by_program = Hashtbl.create 16 in
  let rec scan_exports site (p : Ast.proc) =
    match p.Loc.it with
    | Ast.Pexport_new (xs, q) ->
        List.iter (fun x -> Hashtbl.replace exported_by_program (site, x) ()) xs;
        scan_exports site q
    | Ast.Ppar (a, b) ->
        scan_exports site a;
        scan_exports site b
    | Ast.Pnew (_, q) | Ast.Pdef (_, q) | Ast.Pexport_def (_, q)
    | Ast.Pimport_name (_, _, q) | Ast.Pimport_class (_, _, q) ->
        scan_exports site q
    | Ast.Pnil | Ast.Pmsg _ | Ast.Pobj _ | Ast.Pinst _ | Ast.Pif _
    | Ast.Plet _ ->
        ()
  in
  List.iter (fun (s : Ast.site_decl) -> scan_exports s.s_name s.s_proc)
    prog.sites;
  Hashtbl.iter
    (fun (site, name) _t ->
      if not (Hashtbl.mem exported_by_program (site, name)) then
        err Loc.dummy "site '%s' does not export name '%s'" site name)
    g.export_names;
  let export_name_types =
    Hashtbl.fold (fun k t acc -> (k, t) :: acc) g.export_names []
  in
  let export_class_types =
    Hashtbl.fold (fun k s acc -> (k, s) :: acc) g.export_classes []
  in
  { ctx;
    export_name_types;
    export_class_types;
    name_types = export_name_types }

let check_proc (p : Ast.proc) : info =
  check_program { Ast.sites = [ { Ast.s_name = "main"; s_proc = p } ] }
