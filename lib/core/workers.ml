type t = {
  work : int Atomic.t;
  stop : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable workers : worker list; (* newest first *)
}

and worker = {
  id : int;
  run : t;
  parked : bool Atomic.t;
  bell_r : Unix.file_descr;
  bell_w : Unix.file_descr;
  (* worker-confined, read after join *)
  mutable held : bool; (* the worker's own unit of [work] *)
  mutable parks : int;
  mutable error : exn option;
  mutable domain : unit Domain.t option;
}

let create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  { work = Atomic.make 0; stop = Atomic.make false; wake_r; wake_w; workers = [] }

let worker run ~id =
  let bell_r, bell_w = Unix.pipe ~cloexec:true () in
  let w =
    { id; run; parked = Atomic.make false; bell_r; bell_w; held = false;
      parks = 0; error = None; domain = None }
  in
  run.workers <- w :: run.workers;
  w

let wake run = ignore (Unix.write_substring run.wake_w "w" 0 1)
let count run n = ignore (Atomic.fetch_and_add run.work n)
let uncount run n = if Atomic.fetch_and_add run.work (-n) = n then wake run
let work run = Atomic.get run.work
let stopped run = Atomic.get run.stop
let parks w = w.parks

let hold w =
  if not w.held then begin
    w.held <- true;
    count w.run 1
  end

let settle w ~busy =
  if busy then hold w
  else if w.held then begin
    w.held <- false;
    uncount w.run 1
  end

(* Only the giver that clears the flag writes, so a park costs at most
   one byte. *)
let ring w =
  if Atomic.get w.parked && Atomic.exchange w.parked false then
    ignore (Unix.write_substring w.bell_w "b" 0 1)

(* How long a worker with nothing to do keeps polling before it parks:
   a reply that arrives within it finds the worker awake. *)
let spin_s = 5e-5

let park w ~ready ~fds scratch =
  Atomic.set w.parked true;
  if ready () || Atomic.get w.run.stop then Atomic.set w.parked false
  else begin
    w.parks <- w.parks + 1;
    (match Unix.select (w.bell_r :: fds ()) [] [] (-1.) with
    | readable, _, _ ->
        (* a byte written after the worker cleared its own flag is read
           here: at worst one early wake-up *)
        if List.mem w.bell_r readable then
          ignore (Unix.read w.bell_r scratch 0 (Bytes.length scratch))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Atomic.set w.parked false
  end

let serve w ~pass ~ready ~fds =
  let scratch = Bytes.create 64 in
  let idle_since = ref Float.infinity in
  while not (Atomic.get w.run.stop) do
    if pass () then idle_since := Float.infinity
    else begin
      let now = Unix.gettimeofday () in
      if now -. !idle_since >= spin_s then begin
        park w ~ready ~fds scratch;
        idle_since := Float.infinity
      end
      else if !idle_since = Float.infinity then idle_since := now
    end
  done

let start ?(ready = fun () -> false) ?(fds = fun () -> []) w ~pass =
  w.domain <-
    Some
      (Domain.spawn (fun () ->
           try serve w ~pass ~ready ~fds
           with exn ->
             w.error <- Some exn;
             Atomic.set w.run.stop true;
             wake w.run))

let wait run ~deadline ?(tick = fun () -> Float.infinity) () =
  let drain = Bytes.create 64 in
  let rec go () =
    let next = Float.max spin_s (tick ()) in
    if Atomic.get run.work = 0 || Atomic.get run.stop then false
    else
      let now = Unix.gettimeofday () in
      if now >= deadline then true
      else begin
        (match Unix.select [ run.wake_r ] [] [] (Float.min (deadline -. now) next) with
        | [], _, _ -> ()
        | _ -> ignore (Unix.read run.wake_r drain 0 (Bytes.length drain))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
      end
  in
  go ()

let message = function
  | Failure m | Site.Protocol_error m | Tyco_vm.Machine.Error m -> m
  | Tyco_support.Wire.Malformed m -> "malformed frame: " ^ m
  | e -> Printexc.to_string e

let join run ~fail =
  Atomic.set run.stop true;
  let workers = List.rev run.workers in
  List.iter ring workers;
  List.iter (fun w -> Option.iter Domain.join w.domain) workers;
  List.iter (fun w -> Unix.close w.bell_r; Unix.close w.bell_w) workers;
  Unix.close run.wake_r;
  Unix.close run.wake_w;
  match List.find_opt (fun w -> w.error <> None) workers with
  | Some { id; error = Some e; _ } -> raise (fail id (message e))
  | _ -> ()
