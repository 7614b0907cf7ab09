(* The shipped example programs, found from wherever the test binary
   runs: dune runs it in [_build/default/test], where the examples are
   copied to [../examples/programs], and a run from the repository
   root finds them at [examples/programs].  Finding neither is a
   failure that names the paths tried, never a skip. *)

let candidates = [ "../examples/programs"; "examples/programs" ]

let dir () =
  match
    List.find_opt (fun d -> Sys.file_exists d && Sys.is_directory d) candidates
  with
  | Some d -> d
  | None ->
      Alcotest.failf "examples/programs not found from %s (tried %s)"
        (Sys.getcwd ()) (String.concat ", " candidates)

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every [.tyco] file not in [except], sorted by name, as
   (file name, path, source). *)
let programs ?(except = []) () =
  let dir = dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".tyco" && not (List.mem f except))
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (f, path, read path))
