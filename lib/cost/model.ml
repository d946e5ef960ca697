module Grouping = Dqo_exec.Grouping
module Join = Dqo_exec.Join
module Physical = Dqo_plan.Physical
module Granule = Dqo_plan.Granule

type t = { hash_factor : float; deep_molecules : bool }

let table2 = { hash_factor = 4.0; deep_molecules = false }
let with_hash_factor f = { table2 with hash_factor = f }
let deep = { table2 with deep_molecules = true }

let log2 x = if x <= 1.0 then 0.0 else Float.log x /. Float.log 2.0

let priced_level t =
  if t.deep_molecules then Granule.Molecule else Granule.Organelle

let molecule_multiplier ~table ~hash =
  match
    List.find_opt
      (fun (m : Granule.molecule) -> m.table == table && m.hash == hash)
      Granule.molecules
  with
  | Some m -> m.multiplier
  | None -> 1.0

let effective_hash_factor t ~table ~hash =
  if t.deep_molecules then t.hash_factor *. molecule_multiplier ~table ~hash
  else t.hash_factor

let grouping_cost t ~(impl : Physical.grouping_impl) ~rows ~groups =
  let n = Float.of_int rows in
  let g = Float.of_int groups in
  match impl.g_alg with
  | Grouping.HG ->
    effective_hash_factor t ~table:impl.g_table ~hash:impl.g_hash *. n
  | Grouping.OG -> n
  | Grouping.SOG -> (n *. log2 n) +. n
  | Grouping.SPHG -> n
  | Grouping.BSG -> n *. log2 g

let join_cost t ~(impl : Physical.join_impl) ~left_rows ~right_rows
    ~left_distinct =
  let r = Float.of_int left_rows in
  let s = Float.of_int right_rows in
  let g = Float.of_int left_distinct in
  match impl.j_alg with
  | Join.HJ ->
    effective_hash_factor t ~table:impl.j_table ~hash:impl.j_hash *. (r +. s)
  | Join.OJ -> r +. s
  | Join.SOJ -> (r *. log2 r) +. (s *. log2 s) +. r +. s
  | Join.SPHJ -> r +. s
  | Join.BSJ -> (r +. s) *. log2 g

let sort_cost _t ~rows =
  let n = Float.of_int rows in
  n *. log2 n

let scan_cost _t ~rows = Float.of_int rows
let filter_cost _t ~rows = Float.of_int rows
