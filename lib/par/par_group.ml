module Grouping = Dqo_exec.Grouping
module Group_result = Dqo_exec.Group_result
module Partition = Dqo_exec.Partition
module Pipeline = Dqo_exec.Pipeline
module Metrics = Dqo_obs.Metrics
module Int_col = Dqo_data.Int_col

(* Fixed so that results (and partition layouts) never depend on how
   many domains happen to execute them. *)
let default_partitions = 64

(* Morsel granularity of the parallel scatter.  Matches the chunked
   column chunk size, so a morsel never straddes more than two chunks
   and the per-morsel segment iteration stays cache-resident. *)
let scatter_morsel = Int_col.default_chunk_rows

(* Per-domain registries, folded into [metrics] in worker order after
   the parallel region — the merge discipline every operator here
   shares. *)
let with_worker_metrics pool metrics f =
  match metrics with
  | None -> f (fun _w -> None)
  | Some m ->
    let regs = Array.init (Pool.size pool) (fun _ -> Metrics.create ()) in
    let r = f (fun w -> Some regs.(w)) in
    Array.iter (fun reg -> Metrics.merge ~into:m reg) regs;
    Metrics.incr m ~by:(Pool.size pool) "par.domains";
    r

let record reg ~op ~rows_in ~rows_out ~wall_ns =
  match reg with
  | None -> ()
  | Some m -> Metrics.record m ~op ~rows_in ~rows_out ~wall_ns

type payload = Col of Int_col.t | Row_ids

(* Two-pass parallel morsel scatter.

   Pass 1 counts each morsel's bucket histogram in parallel; a
   sequential prefix over (morsel, bucket) then fixes every morsel's
   write offsets inside contiguous per-bucket output arrays; pass 2
   scatters in parallel, each domain writing the output regions of the
   morsels it claims — which first-touches those pages on the writing
   domain, the NUMA placement approximation.

   The layout is global row order within each bucket, i.e. byte-for-byte
   the layout of the sequential [Partition.scatter], for any pool size:
   offsets depend only on the morsel size and the data, never on which
   worker ran which morsel. *)
let scatter pool reg_of ~bucket_of ~buckets ~keys ~payload =
  let n = Int_col.length keys in
  (match payload with
  | Col v ->
    if Int_col.length v <> n then
      invalid_arg "Par_group: keys/values length mismatch"
  | Row_ids -> ());
  let morsels = (n + scatter_morsel - 1) / scatter_morsel in
  let counts = Array.make (max morsels 1) [||] in
  Pool.parallel_for pool ~chunk:1 ~n:morsels (fun ~w ~lo ~hi ->
      for m = lo to hi do
        let t0 = Metrics.now_ns () in
        let pos = m * scatter_morsel in
        let len = min scatter_morsel (n - pos) in
        let c = Array.make buckets 0 in
        Int_col.iter_seg_range keys ~pos ~len ~f:(fun _ buf off l ->
            for i = off to off + l - 1 do
              let b = bucket_of (Array.unsafe_get buf i) in
              Array.unsafe_set c b (Array.unsafe_get c b + 1)
            done);
        counts.(m) <- c;
        record (reg_of w) ~op:"par/scatter-count" ~rows_in:len ~rows_out:0
          ~wall_ns:(Metrics.now_ns () - t0)
      done);
  (* Exclusive prefix over (morsel, bucket): after this loop,
     [counts.(m).(b)] is the first output slot in bucket [b] owned by
     morsel [m], and [sizes.(b)] the bucket total. *)
  let sizes = Array.make buckets 0 in
  for m = 0 to morsels - 1 do
    let c = counts.(m) in
    for b = 0 to buckets - 1 do
      let k = c.(b) in
      c.(b) <- sizes.(b);
      sizes.(b) <- sizes.(b) + k
    done
  done;
  let out_keys = Array.init buckets (fun b -> Array.make sizes.(b) 0) in
  let out_values = Array.init buckets (fun b -> Array.make sizes.(b) 0) in
  Pool.parallel_for pool ~chunk:1 ~n:morsels (fun ~w ~lo ~hi ->
      for m = lo to hi do
        let t0 = Metrics.now_ns () in
        let pos = m * scatter_morsel in
        let len = min scatter_morsel (n - pos) in
        (* Each morsel is claimed by exactly one worker, so its offset
           row can be advanced in place. *)
        let cur = counts.(m) in
        (match payload with
        | Row_ids ->
          Int_col.iter_seg_range keys ~pos ~len ~f:(fun p buf off l ->
              for i = 0 to l - 1 do
                let k = Array.unsafe_get buf (off + i) in
                let b = bucket_of k in
                let c = Array.unsafe_get cur b in
                Array.unsafe_set (Array.unsafe_get out_keys b) c k;
                Array.unsafe_set (Array.unsafe_get out_values b) c (p + i);
                Array.unsafe_set cur b (c + 1)
              done)
        | Col v ->
          Int_col.iter_seg2_range keys v ~pos ~len
            ~f:(fun _ kb ko vb vo l ->
              for i = 0 to l - 1 do
                let k = Array.unsafe_get kb (ko + i) in
                let b = bucket_of k in
                let c = Array.unsafe_get cur b in
                Array.unsafe_set (Array.unsafe_get out_keys b) c k;
                Array.unsafe_set (Array.unsafe_get out_values b) c
                  (Array.unsafe_get vb (vo + i));
                Array.unsafe_set cur b (c + 1)
              done));
        record (reg_of w) ~op:"par/scatter-write" ~rows_in:len ~rows_out:len
          ~wall_ns:(Metrics.now_ns () - t0)
      done);
  { Partition.keys = out_keys; values = out_values }

let by_hash_parallel pool ?(reg_of = fun _ -> None)
    ?(hash = Dqo_hash.Hash_fn.Murmur3) ~partitions ~keys ~payload () =
  if partitions < 1 then
    invalid_arg "Par_group.by_hash_parallel: partitions < 1";
  scatter pool reg_of
    ~bucket_of:(fun k -> Dqo_hash.Hash_fn.apply hash k mod partitions)
    ~buckets:partitions ~keys ~payload

let concat_results (results : Group_result.t array) : Group_result.t =
  let total =
    Array.fold_left (fun acc r -> acc + Group_result.groups r) 0 results
  in
  let keys = Array.make total 0
  and counts = Array.make total 0
  and sums = Array.make total 0 in
  let pos = ref 0 in
  Array.iter
    (fun (r : Group_result.t) ->
      let g = Group_result.groups r in
      Array.blit r.Group_result.keys 0 keys !pos g;
      Array.blit r.Group_result.counts 0 counts !pos g;
      Array.blit r.Group_result.sums 0 sums !pos g;
      pos := !pos + g)
    results;
  { Group_result.keys; counts; sums }

let aggregate_bundle pool ?metrics (b : Pipeline.bundle) =
  let n = Array.length b in
  let out =
    Array.make n { Group_result.keys = [||]; counts = [||]; sums = [||] }
  in
  with_worker_metrics pool metrics (fun reg_of ->
      Pool.parallel_for pool ~chunk:1 ~n (fun ~w ~lo ~hi ->
          for i = lo to hi do
            let t0 = Metrics.now_ns () in
            let keys, values = Pipeline.collect b.(i) in
            let r =
              Grouping.hash_based
                ~keys:(Int_col.of_array keys)
                ~values:(Int_col.of_array values) ()
            in
            out.(i) <- r;
            record (reg_of w) ~op:"par/bundle-member"
              ~rows_in:(Array.length keys)
              ~rows_out:(Group_result.groups r)
              ~wall_ns:(Metrics.now_ns () - t0)
          done);
      out)

let partition_based pool ?metrics ?(hash = Dqo_hash.Hash_fn.Murmur3)
    ?(table = Grouping.Chaining) ?(partitions = default_partitions) ~keys
    ~values () =
  if partitions < 1 then
    invalid_arg "Par_group.partition_based: partitions < 1";
  let locals =
    Array.make partitions
      { Group_result.keys = [||]; counts = [||]; sums = [||] }
  in
  with_worker_metrics pool metrics (fun reg_of ->
      let parts =
        by_hash_parallel pool ~reg_of ~hash ~partitions ~keys
          ~payload:(Col values) ()
      in
      Pool.parallel_for pool ~chunk:1 ~n:partitions (fun ~w ~lo ~hi ->
          for p = lo to hi do
            let t0 = Metrics.now_ns () in
            let r =
              Grouping.hash_based ~hash ~table
                ~keys:(Int_col.of_array parts.Partition.keys.(p))
                ~values:(Int_col.of_array parts.Partition.values.(p)) ()
            in
            locals.(p) <- r;
            record (reg_of w) ~op:"par/grouping-partition"
              ~rows_in:(Array.length parts.Partition.keys.(p))
              ~rows_out:(Group_result.groups r)
              ~wall_ns:(Metrics.now_ns () - t0)
          done);
      (* Partitions are key-disjoint: concatenation is the union. *)
      concat_results locals)

let sph pool ?metrics ~lo ~hi ~keys ~values () =
  if hi < lo then invalid_arg "Par_group.sph: hi < lo";
  let n = Int_col.length keys in
  if Int_col.length values <> n then
    invalid_arg "Par_group.sph: keys/values length mismatch";
  let domain = hi - lo + 1 in
  let workers = Pool.size pool in
  let counts_w = Array.init workers (fun _ -> Array.make domain 0) in
  let sums_w = Array.init workers (fun _ -> Array.make domain 0) in
  with_worker_metrics pool metrics (fun reg_of ->
      Pool.parallel_for pool ~n (fun ~w ~lo:clo ~hi:chi ->
          let t0 = Metrics.now_ns () in
          let counts = counts_w.(w) and sums = sums_w.(w) in
          Int_col.iter_seg2_range keys values ~pos:clo ~len:(chi - clo + 1)
            ~f:(fun _ kb ko vb vo l ->
              for i = 0 to l - 1 do
                let k = Array.unsafe_get kb (ko + i) in
                if k < lo || k > hi then
                  invalid_arg "Par_group.sph: key outside dense domain";
                let slot = k - lo in
                counts.(slot) <- counts.(slot) + 1;
                sums.(slot) <- sums.(slot) + Array.unsafe_get vb (vo + i)
              done);
          record (reg_of w) ~op:"par/sph-chunk" ~rows_in:(chi - clo + 1)
            ~rows_out:0
            ~wall_ns:(Metrics.now_ns () - t0));
      (* Sum the private slot arrays; + commutes, so worker order is
         irrelevant and the totals equal the sequential single-pass. *)
      let counts = counts_w.(0) and sums = sums_w.(0) in
      for w = 1 to workers - 1 do
        let cw = counts_w.(w) and sw = sums_w.(w) in
        for s = 0 to domain - 1 do
          counts.(s) <- counts.(s) + cw.(s);
          sums.(s) <- sums.(s) + sw.(s)
        done
      done;
      (* Same compaction as [Grouping.sph_based]: drop never-hit slots. *)
      Group_result.of_slots ~lo ~counts ~sums:(Some sums))
