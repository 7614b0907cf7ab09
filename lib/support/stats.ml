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
     algorithm R keeps a uniform sample instead.  The counts and
     [sum]/[lo]/[hi] stay exact streaming values; percentiles become
     estimates, except over the exactly counted small integers. *)
  let reservoir_cap = 8192

  (* [add_int] counts values in [0, small_cap) exactly, one int per
     value, and offers only the others to the reservoir: thread lengths
     and queue depths are mostly small, and a site's [thread_len] (one
     sample per thread) used to grow a full 8192-float reservoir straight
     in the major heap and pay a PRNG draw per thread once it was full. *)
  let small_cap = 64

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
    mutable small : int array; (* count per small value; [||] until used *)
    mutable n_small : int;
    mutable reservoir : float array; (* first [filled] slots are live *)
    mutable filled : int;
    mutable n_other : int; (* samples offered to the reservoir *)
    rng : Prng.t; (* deterministic: seeded from the name *)
    acc : float array;
    mutable sorted : float array option; (* reservoir cache, reset by add *)
  }

  let create name =
    { name;
      small = [||];
      n_small = 0;
      reservoir = [||];
      filled = 0;
      n_other = 0;
      rng = Prng.create (Hashtbl.hash name);
      acc = [| 0.; infinity; neg_infinity |];
      sorted = None }

  let name t = t.name

  let[@inline] accumulate t x =
    let acc = t.acc in
    Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. x);
    if x < Array.unsafe_get acc 1 then Array.unsafe_set acc 1 x;
    if x > Array.unsafe_get acc 2 then Array.unsafe_set acc 2 x

  (* Offer [x] to the reservoir, which has been offered [seen] samples
     before it.  Inlined, like [add], so [x] is never boxed. *)
  let[@inline] retain t ~seen x =
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
      (* algorithm R: keep the new sample with probability cap/(seen+1) *)
      let j = Prng.int t.rng (seen + 1) in
      if j < reservoir_cap then begin
        t.reservoir.(j) <- x;
        t.sorted <- None
      end
    end

  (* Inlined, so [add_int]'s float never leaves a register. *)
  let[@inline] add t x =
    retain t ~seen:t.n_other x;
    t.n_other <- t.n_other + 1;
    accumulate t x

  (* Integer entry point: hot loops recording counts and depths pass an
     unboxed int, and a small one costs an array increment. *)
  let add_int t n =
    if n >= 0 && n < small_cap then begin
      if Array.length t.small = 0 then t.small <- Array.make small_cap 0;
      Array.unsafe_set t.small n (Array.unsafe_get t.small n + 1);
      t.n_small <- t.n_small + 1;
      accumulate t (float_of_int n)
    end
    else add t (float_of_int n)

  let count t = t.n_small + t.n_other
  let mean t = if count t = 0 then 0. else t.acc.(0) /. float_of_int (count t)
  let min t = t.acc.(1)
  let max t = t.acc.(2)

  let samples t =
    let out = Array.make (t.n_small + t.filled) 0. in
    let k = ref 0 in
    Array.iteri
      (fun v c ->
        Array.fill out !k c (float_of_int v);
        k := !k + c)
      t.small;
    Array.blit t.reservoir 0 out !k t.filled;
    out

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Array.sub t.reservoir 0 t.filled in
        Array.sort Float.compare a;
        t.sorted <- Some a;
        a

  (* The value of rank [k] (0-based, ascending): the exact counts merged
     with the sorted reservoir, each retained sample standing for
     [n_other / filled] observations — exactly one below the cap, where
     every rank is exact.  Float rounding past the cap can leave the
     last rank short; it then reads the largest retained value. *)
  let rank t k =
    let r = sorted t in
    let w =
      if t.filled = 0 then 0.
      else float_of_int t.n_other /. float_of_int t.filled
    in
    let nsmall = Array.length t.small and target = float_of_int k in
    let rec go v j cum last =
      if v < nsmall && (j >= t.filled || float_of_int v <= r.(j)) then begin
        let c = t.small.(v) in
        if c = 0 then go (v + 1) j cum last
        else
          let cum = cum +. float_of_int c in
          if cum > target then float_of_int v
          else go (v + 1) j cum (float_of_int v)
      end
      else if j < t.filled then begin
        let cum = cum +. w in
        if cum > target then r.(j) else go v (j + 1) cum r.(j)
      end
      else last
    in
    go 0 0 0. nan

  (* Linear interpolation between closest ranks (the R-7/NumPy default)
     instead of nearest-rank: on an 8192-cap reservoir the tail
     percentiles (p999 spans ~8 retained samples) otherwise jump whole
     sample-widths between runs. *)
  let percentile t p =
    let n = count t in
    if n = 0 then invalid_arg "Dist.percentile: no samples";
    if n = 1 then rank t 0
    else begin
      let p = if p < 0. then 0. else if p > 1. then 1. else p in
      let h = p *. float_of_int (n - 1) in
      let i = Stdlib.min (int_of_float h) (n - 2) in
      let frac = h -. float_of_int i in
      let a = rank t i in
      a +. (frac *. (rank t (i + 1) -. a))
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
    if count t = 0 then None
    else
      Some
        { s_n = count t; s_mean = mean t; s_min = min t; s_max = max t;
          s_p50 = percentile t 0.5; s_p95 = percentile t 0.95;
          s_p99 = percentile t 0.99; s_p999 = percentile t 0.999 }

  (* Merge [o]'s observations into [t]: the counts, the small-value
     counts and n/sum/lo/hi merge exactly; [o]'s retained reservoir
     folds into [t]'s (append below the cap, algorithm-R replacement
     above it), so merged percentiles stay estimates of the union.  [o]
     is unchanged.  This is the quiescence-time path for per-domain
     histograms. *)
  let absorb t o =
    if count o > 0 then begin
      if o.n_small > 0 then begin
        if Array.length t.small = 0 then t.small <- Array.make small_cap 0;
        Array.iteri (fun v c -> t.small.(v) <- t.small.(v) + c) o.small;
        t.n_small <- t.n_small + o.n_small
      end;
      for i = 0 to o.filled - 1 do
        retain t ~seen:(t.n_other + i) (Array.unsafe_get o.reservoir i)
      done;
      t.n_other <- t.n_other + o.n_other;
      let acc = t.acc and oacc = o.acc in
      acc.(0) <- acc.(0) +. oacc.(0);
      if oacc.(1) < acc.(1) then acc.(1) <- oacc.(1);
      if oacc.(2) > acc.(2) then acc.(2) <- oacc.(2)
    end

  let reset t =
    Array.fill t.small 0 (Array.length t.small) 0;
    t.n_small <- 0;
    t.filled <- 0;
    t.n_other <- 0;
    t.acc.(0) <- 0.;
    t.acc.(1) <- infinity;
    t.acc.(2) <- neg_infinity;
    t.sorted <- None

  let pp_summary ppf t =
    if count t = 0 then Format.fprintf ppf "%s: (no samples)" t.name
    else
      Format.fprintf ppf
        "%s: n=%d mean=%.2f min=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f"
        t.name (count t) (mean t) (min t) (percentile t 0.5) (percentile t 0.95)
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

(* Quiescence-time merge: counters sum, distributions absorb. *)
let merge_into ~into src =
  List.iter
    (fun c -> Counter.add (counter into (Counter.name c)) (Counter.value c))
    (counters src);
  List.iter (fun d -> Dist.absorb (dist into (Dist.name d)) d) (dists src)

let reset t =
  Hashtbl.iter (fun _ c -> Counter.reset c) t.counters;
  Hashtbl.iter (fun _ d -> Dist.reset d) t.dists

let pp ppf t =
  List.iter
    (fun c ->
      Format.fprintf ppf "%s = %d@." (Counter.name c) (Counter.value c))
    (counters t);
  List.iter (fun d -> Format.fprintf ppf "%a@." Dist.pp_summary d) (dists t)
