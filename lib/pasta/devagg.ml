(* Device-side partial aggregation of materialized access batches.

   Mirrors the paper's GPU-resident reduction (Fig. 2b): each shard — one
   generation chunk — reduces its records into per-object counts, a block
   histogram and coalesced address intervals, independently and on any
   domain; the shards then merge in deterministic chunk order at kernel
   end.  Summary-only tools consume the merged result and never see raw
   records.  All per-count quantities are weighted by record weight, i.e.
   they are exact true-access counts, not sample counts. *)

module W = Gpusim.Warp

let block_bytes = 2 * 1024 * 1024

type shard = {
  s_objects : (int, Objmap.obj * int) Hashtbl.t;  (* obj_key -> (obj, weight) *)
  s_blocks : (int, int) Hashtbl.t;  (* block index -> weight *)
  s_intervals : int array;  (* flat sorted disjoint [base, limit) pairs *)
  s_regions : (int * int) list;  (* batch region index -> weight *)
  s_records : int;
  s_weight : int;
  s_writes : int;
}

type summary = {
  objects : (Objmap.obj * int) list;
  blocks : (int * int) list;
  coalesced : Extents.t;
  regions : (int * int) list;
  sampled_records : int;
  true_accesses : int;
  writes : int;
  est_rate : float;
}

(* In-place quicksort of [a.(lo..hi)] with primitive int comparisons;
   [Array.sort compare] would pay a polymorphic-compare call per
   comparison, which dominates the whole reduction. *)
let rec qsort (a : int array) lo hi =
  if hi - lo < 16 then
    for i = lo + 1 to hi do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let x = a.(lo) and y = a.(lo + ((hi - lo) / 2)) and z = a.(hi) in
    let pivot = max (min x y) (min (max x y) z) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if lo < !j then qsort a lo !j;
    if !i < hi then qsort a !i hi
  end

let is_sorted (a : int array) n =
  let ok = ref true in
  let i = ref 1 in
  while !ok && !i < n do
    if a.(!i - 1) > a.(!i) then ok := false;
    incr i
  done;
  !ok

(* Merge the sorted pair runs [lo, mid) and [mid, hi) — pair indices over
   flat [base, limit) storage — from [src] into [dst], lexicographically
   and stably. *)
let merge_runs (src : int array) (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid and k = ref lo in
  while !i < mid && !j < hi do
    let ib = src.(2 * !i) and il = src.((2 * !i) + 1) in
    let jb = src.(2 * !j) and jl = src.((2 * !j) + 1) in
    if ib < jb || (ib = jb && il <= jl) then begin
      dst.(2 * !k) <- ib;
      dst.((2 * !k) + 1) <- il;
      incr i
    end
    else begin
      dst.(2 * !k) <- jb;
      dst.((2 * !k) + 1) <- jl;
      incr j
    end;
    incr k
  done;
  if !i < mid then Array.blit src (2 * !i) dst (2 * !k) (2 * (mid - !i))
  else if !j < hi then Array.blit src (2 * !j) dst (2 * !k) (2 * (hi - !j))

(* Lexicographic sort of [base, limit) pairs stored flat as
   [a.(2i), a.(2i+1)], by natural (run-detecting) bottom-up merge using
   caller-provided scratch ([scratch] >= 2*npairs ints, [bounds] and
   [bounds2] >= npairs+1 each — contents ignored, clobbered).  The input
   here is always a concatenation of a few long already-sorted segments —
   per-chunk coalesced runs, one group per worker — which is exactly the
   shape that drives quicksort's median-of-three pivots quadratic, and
   that a run merge sorts in O(n log runs).  Already-sorted input is
   detected for free (one run, no work). *)
let sort_pairs_in ~(bounds : int array) ~(bounds2 : int array)
    ~(scratch : int array) (a : int array) npairs =
  if npairs > 1 then begin
    let nruns = ref 1 in
    bounds.(0) <- 0;
    for i = 1 to npairs - 1 do
      let pb = a.(2 * (i - 1)) and b = a.(2 * i) in
      if pb > b || (pb = b && a.((2 * (i - 1)) + 1) > a.((2 * i) + 1)) then begin
        bounds.(!nruns) <- i;
        incr nruns
      end
    done;
    if !nruns > 1 then begin
      bounds.(!nruns) <- npairs;
      let src = ref a and dst = ref scratch in
      let bs = ref bounds and bd = ref bounds2 in
      let n = ref !nruns in
      while !n > 1 do
        let m = ref 0 and r = ref 0 in
        while !r < !n do
          if !r + 1 < !n then begin
            merge_runs !src !dst (!bs).(!r) (!bs).(!r + 1) (!bs).(!r + 2);
            (!bd).(!m) <- (!bs).(!r);
            incr m;
            r := !r + 2
          end
          else begin
            let lo = (!bs).(!r) and hi = (!bs).(!r + 1) in
            Array.blit !src (2 * lo) !dst (2 * lo) (2 * (hi - lo));
            (!bd).(!m) <- lo;
            incr m;
            incr r
          end
        done;
        (!bd).(!m) <- npairs;
        n := !m;
        let ts = !src in
        src := !dst;
        dst := ts;
        let tb = !bs in
        bs := !bd;
        bd := tb
      done;
      if !src != a then Array.blit !src 0 a 0 (2 * npairs)
    end
  end

(* Access sizes fit comfortably below this, so an interval packs into one
   immediate int as [addr * pack + size]; sorting the packed array orders
   by (addr, size) without boxing anything. *)
let ival_pack = 8192

(* Coalesce the [n] sorted packed records [ivals.(0 .. n-1)] and write the
   surviving [base, limit) pairs flat into [out] from index [k]; [out]
   must have room for [2 * n] more ints.  Returns the new fill index. *)
let coalesce_packed (ivals : int array) n (out : int array) k =
  let k = ref k in
  let cb = ref (Array.unsafe_get ivals 0 / ival_pack) in
  let cl = ref (!cb + (Array.unsafe_get ivals 0 mod ival_pack)) in
  for i = 1 to n - 1 do
    let p = Array.unsafe_get ivals i in
    let base = p / ival_pack in
    let limit = base + (p mod ival_pack) in
    if base <= !cl then (if limit > !cl then cl := limit)
    else begin
      out.(!k) <- !cb;
      out.(!k + 1) <- !cl;
      k := !k + 2;
      cb := base;
      cl := limit
    end
  done;
  out.(!k) <- !cb;
  out.(!k + 1) <- !cl;
  !k + 2

let aggregate view (b : W.batch) =
  let objects = Hashtbl.create 16 and blocks = Hashtbl.create 32 in
  let weight = ref 0 and writes = ref 0 in
  let ivals = Array.make (max 1 b.W.b_len) 0 in
  (* Generation chunks have strong locality — long runs of records hit the
     same object and the same 2 MiB block — so both tallies are run-length
     accumulated and only touch their hashtable when the run breaks.  The
     resolve memo is shard-local for the same reason Objmap's is not used
     here: it must be domain-safe. *)
  let memo_base = ref min_int and memo_limit = ref min_int in
  let memo_obj = ref (Objmap.Unknown 0) in
  let cur_key = ref min_int and cur_obj = ref (Objmap.Unknown 0) and cur_w = ref 0 in
  let cur_blk = ref min_int and cur_blk_w = ref 0 in
  let flush_obj () =
    if !cur_w > 0 then begin
      let key = !cur_key in
      match Hashtbl.find_opt objects key with
      | Some (o, acc) -> Hashtbl.replace objects key (o, acc + !cur_w)
      | None -> Hashtbl.add objects key (!cur_obj, !cur_w)
    end
  in
  let flush_blk () =
    if !cur_blk_w > 0 then
      Hashtbl.replace blocks !cur_blk
        (!cur_blk_w + Option.value ~default:0 (Hashtbl.find_opt blocks !cur_blk))
  in
  for i = 0 to b.W.b_len - 1 do
    let addr = Bigarray.Array1.unsafe_get b.W.addrs i
    and w = Bigarray.Array1.unsafe_get b.W.weights i in
    let obj =
      if addr >= !memo_base && addr < !memo_limit then !memo_obj
      else
        match Objmap.resolve_view view addr with
        | Objmap.Unknown _ as u -> u
        | obj ->
            let base = Objmap.obj_key obj in
            memo_base := base;
            memo_limit := base + Objmap.obj_bytes obj;
            memo_obj := obj;
            obj
    in
    let key = Objmap.obj_key obj in
    if key = !cur_key then cur_w := !cur_w + w
    else begin
      flush_obj ();
      cur_key := key;
      cur_obj := obj;
      cur_w := w
    end;
    let blk = addr / block_bytes in
    if blk = !cur_blk then cur_blk_w := !cur_blk_w + w
    else begin
      flush_blk ();
      cur_blk := blk;
      cur_blk_w := w
    end;
    weight := !weight + w;
    if Bigarray.Array1.unsafe_get b.W.writes i <> 0 then writes := !writes + w;
    ivals.(i) <-
      (addr * ival_pack)
      + min (ival_pack - 1) (Bigarray.Array1.unsafe_get b.W.sizes i)
  done;
  flush_obj ();
  flush_blk ();
  let intervals =
    let n = b.W.b_len in
    if n = 0 then [||]
    else begin
      (* Sequential chunks arrive already sorted; only strided/random
         layouts pay for the sort. *)
      if not (is_sorted ivals n) then qsort ivals 0 (n - 1);
      let out = Array.make (2 * n) 0 in
      Array.sub out 0 (coalesce_packed ivals n out 0)
    end
  in
  {
    s_objects = objects;
    s_blocks = blocks;
    s_intervals = intervals;
    (* One generation chunk belongs to exactly one kernel memory region
       ([b_region]), so the per-region weighted tally is one pair — the
       weights, not the record count, so sampled runs stay unbiased. *)
    s_regions = (if !weight > 0 then [ (b.W.b_region, !weight) ] else []);
    s_records = b.W.b_len;
    s_weight = !weight;
    s_writes = !writes;
  }

(* Shared by every merge flavour: weighted per-region tallies summed into
   [tbl], emitted sorted by region index. *)
let region_tally_add tbl l =
  List.iter
    (fun (r, w) ->
      Hashtbl.replace tbl r (w + Option.value ~default:0 (Hashtbl.find_opt tbl r)))
    l

let region_tally_sorted tbl =
  List.sort
    (fun ((a, _) : int * int) (b, _) -> compare a b)
    (Hashtbl.fold (fun r w acc -> (r, w) :: acc) tbl [])

let merge ?(est_rate = 1.0) shards =
  let objects = Hashtbl.create 32 and blocks = Hashtbl.create 64 in
  let regions = Hashtbl.create 8 in
  let records = ref 0 and weight = ref 0 and writes = ref 0 in
  Array.iter
    (fun s ->
      (* Accumulating sums is order-insensitive, and the sorted output below
         makes the result independent of hash iteration order. *)
      Hashtbl.iter
        (fun key (obj, w) ->
          match Hashtbl.find_opt objects key with
          | Some (o, acc) -> Hashtbl.replace objects key (o, acc + w)
          | None -> Hashtbl.add objects key (obj, w))
        s.s_objects;
      Hashtbl.iter
        (fun blk w ->
          Hashtbl.replace blocks blk (w + Option.value ~default:0 (Hashtbl.find_opt blocks blk)))
        s.s_blocks;
      region_tally_add regions s.s_regions;
      records := !records + s.s_records;
      weight := !weight + s.s_weight;
      writes := !writes + s.s_writes)
    shards;
  {
    objects =
      List.sort
        (fun (a, _) (b, _) -> compare (Objmap.obj_key a) (Objmap.obj_key b))
        (Hashtbl.fold (fun _ ow acc -> ow :: acc) objects []);
    blocks =
      List.sort
        (fun ((a, _) : int * int) (b, _) -> compare a b)
        (Hashtbl.fold (fun b w acc -> (b, w) :: acc) blocks []);
    (* Each shard's intervals are sorted and disjoint, so one k-way pass
       merges them without re-sorting. *)
    coalesced =
      Extents.coalesce
        (Extents.merge (Array.map (fun s -> [ s.s_intervals ]) shards));
    regions = region_tally_sorted regions;
    sampled_records = !records;
    true_accesses = !weight;
    writes = !writes;
    est_rate;
  }

(* ---- Per-domain accumulators (columnar hot path) --------------------- *)

(* One accumulator per worker domain, reused across every chunk that worker
   reduces (and, via {!accum_reset}, across kernels): batches flush their
   run-length tallies into persistent hashtables and their {e per-chunk
   coalesced} intervals into a growable flat pair array, so the per-chunk
   interval arrays and hashtables of [aggregate]+[merge] disappear.
   Everything is merged exactly once per kernel in [merge_accums].

   Coalescing per chunk before appending matters: generation chunks are
   usually address-sorted already, so the per-chunk pass is a sort-free
   linear scan that shrinks ~10^3 records to a handful of intervals —
   deferring raw records to kernel end would force a full O(n log n) sort
   of the concatenation there, which is never sorted across chunks.

   Determinism: the interval multiset, the weighted tallies and the count
   sums are all independent of which worker reduced which chunk, and
   [merge_accums] sorts before producing output, so the summary is
   byte-identical to the per-chunk [aggregate]+[merge] path at any domain
   count — coalescing computes connected components under the same
   overlap-or-touch closure whichever way the records are grouped. *)

(* Mutable table cells: tallies bump in place instead of re-inserting a
   fresh (value, bucket-cons) pair per run flush — access streams that
   alternate between two objects flush on every record, and a
   [find_opt]+[replace] round-trip there allocates ~8 words/record. *)
type ocell = { oc_obj : Objmap.obj; mutable oc_w : int }
type bcell = { mutable bc_w : int }

type accum = {
  a_objects : (int, ocell) Hashtbl.t;
  a_blocks : (int, bcell) Hashtbl.t;
  a_regions : (int, bcell) Hashtbl.t;  (* batch region index -> weight *)
  mutable a_ivals : int array;
      (* coalesced [base, limit) pairs, flat: a_ivals.(2k), a_ivals.(2k+1).
         Unlike the packed per-record form, a coalesced interval can span
         an arbitrary number of records, so limits need their own slot. *)
  mutable a_nivals : int;  (* ints used in [a_ivals]; always even *)
  mutable a_scratch : int array;  (* per-chunk packed records, reused *)
  mutable a_records : int;
  mutable a_weight : int;
  mutable a_writes : int;
  (* Merge arena, used through the {e first} accumulator of the array
     handed to [merge_accums] and reused every kernel, so the per-kernel
     merge allocates no scratch (the output summary's lists and extent
     chunks are the only per-kernel allocation left). *)
  mutable a_cat : int array;  (* concatenated pairs (multi-accum merges only) *)
  mutable a_sscratch : int array;  (* run-merge scratch, 2*npairs ints *)
  mutable a_bounds : int array;  (* run boundaries, npairs+1 ints *)
  mutable a_bounds2 : int array;
}

let accum_create () =
  {
    a_objects = Hashtbl.create 32;
    a_blocks = Hashtbl.create 64;
    a_regions = Hashtbl.create 8;
    a_ivals = Array.make 512 0;
    a_nivals = 0;
    a_scratch = Array.make W.chunk_records 0;
    a_records = 0;
    a_weight = 0;
    a_writes = 0;
    a_cat = [||];
    a_sscratch = [||];
    a_bounds = [||];
    a_bounds2 = [||];
  }

(* Reusable buffer sizing: double until [need] fits, never zeroing live
   contents (callers overwrite before reading). *)
let ensure_ints arr need =
  if Array.length arr >= need then arr
  else begin
    let cap = ref (max 512 (Array.length arr)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    Array.make !cap 0
  end

(* [Hashtbl.clear] keeps the grown bucket arrays, so a reused accumulator
   reaches its steady-state footprint after the first kernel and stops
   allocating. *)
let accum_reset acc =
  Hashtbl.clear acc.a_objects;
  Hashtbl.clear acc.a_blocks;
  Hashtbl.clear acc.a_regions;
  acc.a_nivals <- 0;
  acc.a_records <- 0;
  acc.a_weight <- 0;
  acc.a_writes <- 0

let accum_reserve acc extra =
  let need = acc.a_nivals + extra in
  if need > Array.length acc.a_ivals then begin
    let cap = ref (2 * Array.length acc.a_ivals) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let grown = Array.make !cap 0 in
    Array.blit acc.a_ivals 0 grown 0 acc.a_nivals;
    acc.a_ivals <- grown
  end

let accum_add acc view (b : W.batch) =
  if Array.length acc.a_scratch < b.W.b_len then
    acc.a_scratch <- Array.make (max b.W.b_len (2 * Array.length acc.a_scratch)) 0;
  let ivals = acc.a_scratch in
  let weight = ref 0 and writes = ref 0 in
  (* Same run-length accumulation as [aggregate], flushing into the
     accumulator's persistent tables instead of fresh per-chunk ones. *)
  let memo_base = ref min_int and memo_limit = ref min_int in
  let memo_obj = ref (Objmap.Unknown 0) in
  let cur_key = ref min_int and cur_obj = ref (Objmap.Unknown 0) and cur_w = ref 0 in
  let cur_blk = ref min_int and cur_blk_w = ref 0 in
  (* Two-slot rotation cache over the cells the runs land in: interleaved
     streams (A,B,A,B,...) flush on every record, and the cache turns
     those flushes into a compare and an in-place bump — no hashing. *)
  let oc0_key = ref min_int and oc0 = ref { oc_obj = Objmap.Unknown 0; oc_w = 0 } in
  let oc1_key = ref min_int and oc1 = ref !oc0 in
  let bc0_key = ref min_int and bc0 = ref { bc_w = 0 } in
  let bc1_key = ref min_int and bc1 = ref !bc0 in
  let flush_obj () =
    if !cur_w > 0 then begin
      let key = !cur_key in
      if key = !oc0_key then !oc0.oc_w <- !oc0.oc_w + !cur_w
      else if key = !oc1_key then begin
        let c = !oc1 in
        c.oc_w <- c.oc_w + !cur_w;
        oc1_key := !oc0_key;
        oc1 := !oc0;
        oc0_key := key;
        oc0 := c
      end
      else begin
        let c =
          match Hashtbl.find_opt acc.a_objects key with
          | Some c -> c
          | None ->
              let c = { oc_obj = !cur_obj; oc_w = 0 } in
              Hashtbl.add acc.a_objects key c;
              c
        in
        c.oc_w <- c.oc_w + !cur_w;
        oc1_key := !oc0_key;
        oc1 := !oc0;
        oc0_key := key;
        oc0 := c
      end
    end
  in
  let flush_blk () =
    if !cur_blk_w > 0 then begin
      let key = !cur_blk in
      if key = !bc0_key then !bc0.bc_w <- !bc0.bc_w + !cur_blk_w
      else if key = !bc1_key then begin
        let c = !bc1 in
        c.bc_w <- c.bc_w + !cur_blk_w;
        bc1_key := !bc0_key;
        bc1 := !bc0;
        bc0_key := key;
        bc0 := c
      end
      else begin
        let c =
          match Hashtbl.find_opt acc.a_blocks key with
          | Some c -> c
          | None ->
              let c = { bc_w = 0 } in
              Hashtbl.add acc.a_blocks key c;
              c
        in
        c.bc_w <- c.bc_w + !cur_blk_w;
        bc1_key := !bc0_key;
        bc1 := !bc0;
        bc0_key := key;
        bc0 := c
      end
    end
  in
  let addrs = b.W.addrs
  and weights = b.W.weights
  and wflags = b.W.writes
  and sizes = b.W.sizes in
  (* Sortedness of the packed column is tracked while packing — one flag
     update per record instead of a separate full scan afterwards. *)
  let sorted = ref true in
  let prev_packed = ref min_int in
  for i = 0 to b.W.b_len - 1 do
    let addr = Bigarray.Array1.unsafe_get addrs i
    and w = Bigarray.Array1.unsafe_get weights i in
    let obj =
      if addr >= !memo_base && addr < !memo_limit then !memo_obj
      else
        match Objmap.resolve_view view addr with
        | Objmap.Unknown _ as u -> u
        | obj ->
            let base = Objmap.obj_key obj in
            memo_base := base;
            memo_limit := base + Objmap.obj_bytes obj;
            memo_obj := obj;
            obj
    in
    let key = Objmap.obj_key obj in
    if key = !cur_key then cur_w := !cur_w + w
    else begin
      flush_obj ();
      cur_key := key;
      cur_obj := obj;
      cur_w := w
    end;
    let blk = addr / block_bytes in
    if blk = !cur_blk then cur_blk_w := !cur_blk_w + w
    else begin
      flush_blk ();
      cur_blk := blk;
      cur_blk_w := w
    end;
    weight := !weight + w;
    if Bigarray.Array1.unsafe_get wflags i <> 0 then writes := !writes + w;
    let packed =
      (addr * ival_pack) + min (ival_pack - 1) (Bigarray.Array1.unsafe_get sizes i)
    in
    if packed < !prev_packed then sorted := false;
    prev_packed := packed;
    Array.unsafe_set ivals i packed
  done;
  flush_obj ();
  flush_blk ();
  let n = b.W.b_len in
  if n > 0 then begin
    (* Sequential chunks arrive already sorted; only strided/random
       layouts pay for the sort. *)
    if not !sorted then qsort ivals 0 (n - 1);
    (* Coalesce the chunk and append the surviving [base, limit) pairs. *)
    accum_reserve acc (2 * n);
    acc.a_nivals <- coalesce_packed ivals n acc.a_ivals acc.a_nivals
  end;
  (* The batch header carries the chunk's region index, so the per-region
     weighted tally costs one hashtable bump per batch, not per record. *)
  if !weight > 0 then begin
    let c =
      match Hashtbl.find_opt acc.a_regions b.W.b_region with
      | Some c -> c
      | None ->
          let c = { bc_w = 0 } in
          Hashtbl.add acc.a_regions b.W.b_region c;
          c
    in
    c.bc_w <- c.bc_w + !weight
  end;
  acc.a_records <- acc.a_records + b.W.b_len;
  acc.a_weight <- acc.a_weight + !weight;
  acc.a_writes <- acc.a_writes + !writes

let merge_accums ?(est_rate = 1.0) accums =
  let objects = Hashtbl.create 32 and blocks = Hashtbl.create 64 in
  let regions = Hashtbl.create 8 in
  let records = ref 0 and weight = ref 0 and writes = ref 0 in
  let total = Array.fold_left (fun n a -> n + a.a_nivals) 0 accums in
  let a0 = accums.(0) in
  (* Single-accumulator merges (one worker lane) sort [a0]'s own pair
     buffer in place — no concatenation copy; the buffer is dead after
     this merge anyway ([accum_reset] empties it before the next kernel).
     Multi-accumulator merges concatenate into the reused arena. *)
  let ivals =
    if Array.length accums = 1 then a0.a_ivals
    else begin
      a0.a_cat <- ensure_ints a0.a_cat total;
      let filled = ref 0 in
      Array.iter
        (fun a ->
          Array.blit a.a_ivals 0 a0.a_cat !filled a.a_nivals;
          filled := !filled + a.a_nivals)
        accums;
      a0.a_cat
    end
  in
  Array.iter
    (fun a ->
      Hashtbl.iter
        (fun key (c : ocell) ->
          match Hashtbl.find_opt objects key with
          | Some (o, acc) -> Hashtbl.replace objects key (o, acc + c.oc_w)
          | None -> Hashtbl.add objects key (c.oc_obj, c.oc_w))
        a.a_objects;
      Hashtbl.iter
        (fun blk (c : bcell) ->
          Hashtbl.replace blocks blk
            (c.bc_w + Option.value ~default:0 (Hashtbl.find_opt blocks blk)))
        a.a_blocks;
      Hashtbl.iter
        (fun r (c : bcell) ->
          Hashtbl.replace regions r
            (c.bc_w + Option.value ~default:0 (Hashtbl.find_opt regions r)))
        a.a_regions;
      records := !records + a.a_records;
      weight := !weight + a.a_weight;
      writes := !writes + a.a_writes)
    accums;
  (* The single pair sort makes the interval multiset canonical, so worker
     assignment and arrival order cannot leak into the output.  Chunks were
     coalesced on the way in, so this sorts intervals, not records.  The
     sorted arena is coalesced straight into the summary's chunks. *)
  let coalesced =
    let npairs = total / 2 in
    if npairs = 0 then Extents.empty
    else begin
      a0.a_sscratch <- ensure_ints a0.a_sscratch (2 * npairs);
      a0.a_bounds <- ensure_ints a0.a_bounds (npairs + 1);
      a0.a_bounds2 <- ensure_ints a0.a_bounds2 (npairs + 1);
      sort_pairs_in ~bounds:a0.a_bounds ~bounds2:a0.a_bounds2
        ~scratch:a0.a_sscratch ivals npairs;
      Extents.coalesce (fun f ->
          for i = 0 to npairs - 1 do
            f ivals.(2 * i) ivals.((2 * i) + 1)
          done)
    end
  in
  {
    objects =
      List.sort
        (fun (a, _) (b, _) -> compare (Objmap.obj_key a) (Objmap.obj_key b))
        (Hashtbl.fold (fun _ ow acc -> ow :: acc) objects []);
    blocks =
      List.sort
        (fun ((a, _) : int * int) (b, _) -> compare a b)
        (Hashtbl.fold (fun b w acc -> (b, w) :: acc) blocks []);
    coalesced;
    regions = region_tally_sorted regions;
    sampled_records = !records;
    true_accesses = !weight;
    writes = !writes;
    est_rate;
  }

(* Summary-level merge, for hierarchical (fleet) reduction: combine
   already-merged per-device summaries into one.  All counts are sums and
   every output list is kept sorted, so the result depends only on the
   multiset of inputs — merge nodes can run on any domain in any order.
   [est_rate] defaults to the record-weighted mean of the inputs' rates,
   which keeps [rel_stderr] meaningful for the combined estimate. *)
let merge_summaries ?est_rate summaries =
  let objects = Hashtbl.create 64 and blocks = Hashtbl.create 128 in
  let regions = Hashtbl.create 8 in
  let records = ref 0 and weight = ref 0 and writes = ref 0 in
  let rate_num = ref 0.0 in
  List.iter
    (fun s ->
      List.iter
        (fun (obj, w) ->
          let key = Objmap.obj_key obj in
          match Hashtbl.find_opt objects key with
          | Some (o, acc) -> Hashtbl.replace objects key (o, acc + w)
          | None -> Hashtbl.add objects key (obj, w))
        s.objects;
      List.iter
        (fun (blk, w) ->
          Hashtbl.replace blocks blk
            (w + Option.value ~default:0 (Hashtbl.find_opt blocks blk)))
        s.blocks;
      region_tally_add regions s.regions;
      records := !records + s.sampled_records;
      weight := !weight + s.true_accesses;
      writes := !writes + s.writes;
      rate_num := !rate_num +. (s.est_rate *. float_of_int s.sampled_records))
    summaries;
  let est_rate =
    match est_rate with
    | Some r -> r
    | None -> if !records = 0 then 1.0 else !rate_num /. float_of_int !records
  in
  {
    objects =
      List.sort
        (fun (a, _) (b, _) -> compare (Objmap.obj_key a) (Objmap.obj_key b))
        (Hashtbl.fold (fun _ ow acc -> ow :: acc) objects []);
    blocks =
      List.sort
        (fun ((a, _) : int * int) (b, _) -> compare a b)
        (Hashtbl.fold (fun b w acc -> (b, w) :: acc) blocks []);
    (* Each input's extents are already sorted and disjoint: one k-way pass
       (k = the merge node's fanout) instead of a concatenate-and-sort. *)
    coalesced =
      Extents.coalesce
        (Extents.merge (Array.of_list (List.map (fun s -> s.coalesced) summaries)));
    regions = region_tally_sorted regions;
    sampled_records = !records;
    true_accesses = !weight;
    writes = !writes;
    est_rate;
  }

(* Structural validation for failure-aware merge nodes.  Every record of a
   well-formed summary lands in exactly one object and one block, so both
   tallies must sum to [true_accesses]; output lists must be sorted with
   positive counts.  A summary corrupted in flight (bit flips on the
   counts, shuffled lists) fails one of these and the merge node drops it
   instead of poisoning the reduction. *)
let validate s =
  let rec sorted_pos prev = function
    | [] -> true
    | (k, w) :: rest -> w > 0 && k > prev && sorted_pos k rest
  in
  let intervals_ok e =
    let prev = ref min_int and ok = ref true in
    Extents.iter
      (fun b l ->
        if b < !prev || l <= b then ok := false;
        prev := l)
      e;
    !ok
  in
  let osum = List.fold_left (fun acc (_, w) -> acc + w) 0 s.objects in
  let bsum = List.fold_left (fun acc (_, w) -> acc + w) 0 s.blocks in
  let rsum = List.fold_left (fun acc (_, w) -> acc + w) 0 s.regions in
  if s.true_accesses < 0 || s.sampled_records < 0 || s.writes < 0 then
    Error "negative count"
  else if s.writes > s.true_accesses then Error "writes exceed accesses"
  else if osum <> s.true_accesses then Error "object weights do not sum to total"
  else if bsum <> s.true_accesses then Error "block weights do not sum to total"
  else if rsum <> s.true_accesses then Error "region weights do not sum to total"
  else if not (sorted_pos min_int s.regions) then
    Error "region list unsorted or non-positive"
  else if
    not
      (sorted_pos min_int
         (List.map (fun (o, w) -> (Objmap.obj_key o, w)) s.objects))
  then Error "object list unsorted or non-positive"
  else if not (sorted_pos min_int s.blocks) then
    Error "block list unsorted or non-positive"
  else if List.exists (fun c -> Array.length c land 1 = 1) s.coalesced then
    Error "coalesced extents of odd length"
  else if not (intervals_ok s.coalesced) then
    Error "coalesced intervals unsorted or empty"
  else if not (Float.is_finite s.est_rate) || s.est_rate <= 0.0 || s.est_rate > 1.0
  then Error "est_rate outside (0, 1]"
  else Ok ()

(* Relative standard error of an inverse-probability-weighted total built
   from [n] kept records at rate [p]: sqrt((1-p) / (n*p)).  Zero for exact
   (rate-1.0) summaries. *)
let rel_stderr s =
  if s.est_rate >= 1.0 || s.sampled_records = 0 then 0.0
  else
    sqrt ((1.0 -. s.est_rate) /. (float_of_int s.sampled_records *. s.est_rate))

let pp ppf s =
  Format.fprintf ppf
    "@[<v>%d objects, %d hot blocks, %d coalesced extents; %d records standing for %d \
     accesses (%d writes)@]"
    (List.length s.objects) (List.length s.blocks)
    (Extents.length s.coalesced)
    s.sampled_records s.true_accesses s.writes;
  if s.est_rate < 1.0 then
    Format.fprintf ppf " [estimate, rate %.3f, ±%.1f%%]" s.est_rate
      (100.0 *. rel_stderr s)
