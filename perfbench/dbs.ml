(* Seeded data sets for the benchmark workloads.  Every generator draws
   from the one [Rng.t] it is handed, so a seed fixes the data exactly;
   the program under test only ever sees the generated relations. *)

open Dqo_data
module Rng = Dqo_util.Rng

type tables = (string * Relation.t) list

let schema names = Schema.of_names (List.map (fun n -> (n, Schema.T_int)) names)
let relation names cols = Relation.create (schema names) cols
let dense_keys ~rng ~shuffled rows =
  let keys = Array.init rows (fun i -> i) in
  if shuffled then Rng.shuffle rng keys;
  Column.of_ints keys

let uniform ~rng ~bound rows = Column.of_ints (Array.init rows (fun _ -> Rng.int rng bound))

(* The paper's §4.3 pair at demo scale: R (id, a) 25k rows with 20k
   distinct [a], S (r_id, b) 90k rows, [r_id] a foreign key into the
   dense [R.id].  Both together (~1.8 MB of int columns) fit the 2 MB
   per-core L2 of the reference host.  With [zipf_b], S.b is redrawn
   from Zipf(1.0) over 1000 values, so range filters on it are
   misestimated by the uniform assumption. *)
let rs_rows = 25_000
let s_rows = 90_000

let rs ?zipf_b ~rng () : tables =
  let pair =
    Datagen.fk_pair ~rng ~r_rows:rs_rows ~s_rows ~r_groups:20_000 ~r_sorted:false
      ~s_sorted:false ~dense:true
  in
  let s =
    match zipf_b with
    | None -> pair.Datagen.s
    | Some theta ->
      let b = Datagen.zipf_keys ~rng ~n:s_rows ~groups:1_000 ~theta () in
      Relation.create (Relation.schema pair.Datagen.s)
        [ Relation.column pair.Datagen.s "r_id"; Column.of_int_col b ]
  in
  [ ("R", pair.Datagen.r); ("S", s) ]

(* A star: Hub (hub_k, hub_f1..hub_f6) with six fk -> pk satellites.
   Every join keeps hub cardinality, so execution stays a few ms while
   the deep DP over 7 relations costs hundreds. *)
let star_relations = 7
let star_hub_rows = 4_000
let star_sat_rows = 5_000

let star ~rng : tables =
  let hub =
    relation
      ("hub_k" :: List.init (star_relations - 1) (fun i -> Printf.sprintf "hub_f%d" (i + 1)))
      (dense_keys ~rng ~shuffled:false star_hub_rows
      :: List.init (star_relations - 1) (fun _ ->
             uniform ~rng ~bound:star_sat_rows star_hub_rows))
  in
  ("Hub", hub)
  :: List.init (star_relations - 1) (fun i ->
         let i = i + 1 in
         ( Printf.sprintf "Sat%d" i,
           relation [ Printf.sprintf "sat%d_k" i ]
             [ dense_keys ~rng ~shuffled:(i mod 2 = 1) star_sat_rows ] ))

(* A chain T1 -> T2 -> ... -> T10 of fk -> pk joins. *)
let chain_relations = 10
let chain_rows = 2_000

let chain ~rng : tables =
  List.init chain_relations (fun i ->
      let i = i + 1 in
      let k = dense_keys ~rng ~shuffled:(i mod 2 = 1) chain_rows in
      let rel =
        if i < chain_relations then
          relation
            [ Printf.sprintf "t%d_k" i; Printf.sprintf "t%d_f" i ]
            [ k; uniform ~rng ~bound:chain_rows chain_rows ]
        else relation [ Printf.sprintf "t%d_k" i ] [ k ]
      in
      (Printf.sprintf "T%d" i, rel))

(* A 20-relation snowflake: hub Snow with three fk -> pk chains of
   7, 6 and 6 tables.  Past the engine's default hier_threshold (16),
   so it plans through the hierarchical optimiser. *)
let snow_chains = [ 7; 6; 6 ]
let snow_rows = 1_000

let snowflake ~rng : tables =
  let hub =
    relation
      ("snow_k" :: List.mapi (fun c _ -> Printf.sprintf "snow_f%d" c) snow_chains)
      (dense_keys ~rng ~shuffled:false snow_rows
      :: List.map (fun _ -> uniform ~rng ~bound:snow_rows snow_rows) snow_chains)
  in
  let chains =
    List.concat
      (List.mapi
         (fun c len ->
           List.init len (fun j ->
               let j = j + 1 in
               let k = dense_keys ~rng ~shuffled:((c + j) mod 2 = 1) snow_rows in
               let rel =
                 if j < len then
                   relation
                     [ Printf.sprintf "c%dt%d_k" c j; Printf.sprintf "c%dt%d_f" c j ]
                     [ k; uniform ~rng ~bound:snow_rows snow_rows ]
                 else relation [ Printf.sprintf "c%dt%d_k" c j ] [ k ]
               in
               (Printf.sprintf "C%dT%d" c j, rel)))
         snow_chains)
  in
  ("Snow", hub) :: chains

(* Out-of-cache scan data: L (k, v) on chunked 32-bit storage (8 MB,
   4x the per-core L2), [k] uniform over 10k dense groups, [v] uniform
   in [0, 1000). *)
let large_rows = 1_000_000
let large_groups = 10_000

let large ~rng : tables =
  let backend = Int_col.Chunked Int_col.W32 in
  let k =
    (Datagen.grouping ~backend ~rng ~n:large_rows ~groups:large_groups ~sorted:false
       ~dense:true ())
      .Datagen.keys
  in
  let v = Int_col.init ~backend large_rows (fun _ -> Rng.int rng 1_000) in
  [ ("L", relation [ "k"; "v" ] [ Column.of_int_col k; Column.of_int_col v ]) ]

(* --- SQL texts over these schemas ----------------------------------- *)

let large_group_sql = "SELECT k, COUNT(*) AS c FROM L GROUP BY k"

let rs_join ?where () =
  "SELECT a, COUNT(*) AS c FROM R JOIN S ON id = r_id"
  ^ (match where with None -> "" | Some w -> " WHERE " ^ w)
  ^ " GROUP BY a"

let star_sql ~hub_lt =
  Printf.sprintf "SELECT hub_k, COUNT(*) AS c FROM Hub%s WHERE hub_k < %d GROUP BY hub_k"
    (String.concat ""
       (List.init (star_relations - 1) (fun i ->
            Printf.sprintf " JOIN Sat%d ON hub_f%d = sat%d_k" (i + 1) (i + 1) (i + 1))))
    hub_lt

let chain_sql ~t1_lt =
  Printf.sprintf "SELECT t1_k, COUNT(*) AS c FROM T1%s WHERE t1_k < %d GROUP BY t1_k"
    (String.concat ""
       (List.init (chain_relations - 1) (fun i ->
            Printf.sprintf " JOIN T%d ON t%d_f = t%d_k" (i + 2) (i + 1) (i + 2))))
    t1_lt

let snowflake_sql ~snow_lt =
  let joins =
    List.concat
      (List.mapi
         (fun c len ->
           List.init len (fun j ->
               let j = j + 1 in
               if j = 1 then Printf.sprintf " JOIN C%dT1 ON snow_f%d = c%dt1_k" c c c
               else Printf.sprintf " JOIN C%dT%d ON c%dt%d_f = c%dt%d_k" c j c (j - 1) c j))
         snow_chains)
  in
  Printf.sprintf "SELECT snow_k, COUNT(*) AS c FROM Snow%s WHERE snow_k < %d GROUP BY snow_k"
    (String.concat "" joins) snow_lt
