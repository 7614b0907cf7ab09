module Counter = struct
  type t = { name : string; mutable value : int }

  let create name = { name; value = 0 }
  let name t = t.name
  let incr t = t.value <- t.value + 1
  let add t n = t.value <- t.value + n
  let value t = t.value
  let reset t = t.value <- 0
end

module Dist = struct
  (* Reservoir cap: long runs (millions of latency samples) previously
     accumulated every sample as a cons list; past this many, Vitter's
     algorithm R keeps a uniform sample instead.  [n]/[sum]/[lo]/[hi]
     stay exact streaming values; percentiles become estimates. *)
  let reservoir_cap = 8192

  (* The reservoir grows geometrically on demand instead of being
     preallocated at [reservoir_cap]: a cluster registers a dozen
     distributions and most never see a sample, so eager 8192-float
     arrays (64 KB zeroed each) dominated Cluster/Site creation — the
     single largest source of the E1 hot-path regression.  The exact
     streaming accumulators live in one unboxed float array because
     mutable float fields of this mixed record would re-box on every
     [add]: acc.(0) = sum, acc.(1) = lo, acc.(2) = hi. *)
  type t = {
    name : string;
    mutable reservoir : float array; (* first [filled] slots are live *)
    mutable filled : int;
    rng : Prng.t; (* deterministic: seeded from the name *)
    mutable n : int;
    acc : float array;
    mutable sorted : float array option; (* cache invalidated by add *)
  }

  let create name =
    { name;
      reservoir = [||];
      filled = 0;
      rng = Prng.create (Hashtbl.hash name);
      n = 0;
      acc = [| 0.; infinity; neg_infinity |];
      sorted = None }

  let name t = t.name

  (* Inlined, so [add_int]'s float never leaves a register. *)
  let[@inline] add t x =
    if t.filled < reservoir_cap then begin
      if t.filled = Array.length t.reservoir then begin
        let cap =
          Stdlib.min reservoir_cap (Stdlib.max 16 (2 * t.filled))
        in
        let bigger = Array.make cap 0. in
        Array.blit t.reservoir 0 bigger 0 t.filled;
        t.reservoir <- bigger
      end;
      Array.unsafe_set t.reservoir t.filled x;
      t.filled <- t.filled + 1;
      if t.sorted != None then t.sorted <- None
    end
    else begin
      (* algorithm R: keep the new sample with probability cap/(n+1) *)
      let j = Prng.int t.rng (t.n + 1) in
      if j < reservoir_cap then begin
        t.reservoir.(j) <- x;
        t.sorted <- None
      end
    end;
    t.n <- t.n + 1;
    let acc = t.acc in
    Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. x);
    if x < Array.unsafe_get acc 1 then Array.unsafe_set acc 1 x;
    if x > Array.unsafe_get acc 2 then Array.unsafe_set acc 2 x

  (* Integer entry point: the conversion happens inside the call, so
     hot loops recording counts/depths pass an unboxed int, and with
     [add] inlined here no float is boxed at all. *)
  let add_int t n = add t (float_of_int n)

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.acc.(0) /. float_of_int t.n
  let min t = t.acc.(1)
  let max t = t.acc.(2)
  let samples t = Array.sub t.reservoir 0 t.filled

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = samples t in
        Array.sort Float.compare a;
        t.sorted <- Some a;
        a

  (* Linear interpolation between closest ranks (the R-7/NumPy default)
     instead of nearest-rank: on an 8192-cap reservoir the tail
     percentiles (p999 spans ~8 retained samples) otherwise jump whole
     sample-widths between runs. *)
  let percentile t p =
    if t.n = 0 then invalid_arg "Dist.percentile: no samples";
    let a = sorted t in
    let k = Array.length a in
    if k = 1 then a.(0)
    else begin
      let p = if p < 0. then 0. else if p > 1. then 1. else p in
      let h = p *. float_of_int (k - 1) in
      let i = Stdlib.min (int_of_float h) (k - 2) in
      let frac = h -. float_of_int i in
      a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
    end

  type summary = {
    s_n : int;
    s_mean : float;
    s_min : float;
    s_max : float;
    s_p50 : float;
    s_p95 : float;
    s_p99 : float;
    s_p999 : float;
  }

  let summary_opt t =
    if t.n = 0 then None
    else
      Some
        { s_n = t.n; s_mean = mean t; s_min = min t; s_max = max t;
          s_p50 = percentile t 0.5; s_p95 = percentile t 0.95;
          s_p99 = percentile t 0.99; s_p999 = percentile t 0.999 }

  (* Merge [o]'s observations into [t]: the exact streaming accumulators
     (n/sum/lo/hi) merge exactly; [o]'s retained reservoir folds into
     [t]'s (append below the cap, algorithm-R replacement above it), so
     merged percentiles stay estimates of the union.  [o] is unchanged.
     This is the quiescence-time path for per-domain histograms. *)
  let absorb t o =
    if o.n > 0 then begin
      let virt = ref t.n in
      for i = 0 to o.filled - 1 do
        let x = Array.unsafe_get o.reservoir i in
        if t.filled < reservoir_cap then begin
          if t.filled = Array.length t.reservoir then begin
            let cap =
              Stdlib.min reservoir_cap (Stdlib.max 16 (2 * t.filled))
            in
            let bigger = Array.make cap 0. in
            Array.blit t.reservoir 0 bigger 0 t.filled;
            t.reservoir <- bigger
          end;
          t.reservoir.(t.filled) <- x;
          t.filled <- t.filled + 1
        end
        else begin
          let j = Prng.int t.rng (!virt + 1) in
          if j < reservoir_cap then t.reservoir.(j) <- x
        end;
        incr virt
      done;
      t.sorted <- None;
      t.n <- t.n + o.n;
      let acc = t.acc and oacc = o.acc in
      acc.(0) <- acc.(0) +. oacc.(0);
      if oacc.(1) < acc.(1) then acc.(1) <- oacc.(1);
      if oacc.(2) > acc.(2) then acc.(2) <- oacc.(2)
    end

  let reset t =
    t.filled <- 0;
    t.n <- 0;
    t.acc.(0) <- 0.;
    t.acc.(1) <- infinity;
    t.acc.(2) <- neg_infinity;
    t.sorted <- None

  let pp_summary ppf t =
    if t.n = 0 then Format.fprintf ppf "%s: (no samples)" t.name
    else
      Format.fprintf ppf
        "%s: n=%d mean=%.2f min=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f"
        t.name t.n (mean t) (min t) (percentile t 0.5) (percentile t 0.95)
        (percentile t 0.99) (max t)
end

type t = {
  counters : (string, Counter.t) Hashtbl.t;
  dists : (string, Dist.t) Hashtbl.t;
  mutable order : string list; (* registration order, newest first *)
}

let create () =
  { counters = Hashtbl.create 16; dists = Hashtbl.create 16; order = [] }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = Counter.create name in
      Hashtbl.add t.counters name c;
      t.order <- name :: t.order;
      c

let dist t name =
  match Hashtbl.find_opt t.dists name with
  | Some d -> d
  | None ->
      let d = Dist.create name in
      Hashtbl.add t.dists name d;
      t.order <- name :: t.order;
      d

let counter_value t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> Counter.value c
  | None -> 0

let counters t =
  List.filter_map (Hashtbl.find_opt t.counters) (List.rev t.order)

let dists t = List.filter_map (Hashtbl.find_opt t.dists) (List.rev t.order)

let reset t =
  Hashtbl.iter (fun _ c -> Counter.reset c) t.counters;
  Hashtbl.iter (fun _ d -> Dist.reset d) t.dists

let pp ppf t =
  List.iter
    (fun c ->
      Format.fprintf ppf "%s = %d@." (Counter.name c) (Counter.value c))
    (counters t);
  List.iter (fun d -> Format.fprintf ppf "%a@." Dist.pp_summary d) (dists t)
