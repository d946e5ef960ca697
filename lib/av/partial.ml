module Granule = Dqo_plan.Granule

type 'alg t = { cell : 'alg Granule.cell; fixed : Granule.binding }

let create cell = { cell; fixed = [] }

let space ?(available = []) t =
  Granule.enumerate ~available ~max_level:Granule.Molecule t.cell

let specialize t ~path ~choice =
  let all = space ~available:Granule.all_requirements t in
  if not (List.exists (List.mem_assoc path) all) then
    invalid_arg ("Partial.specialize: unknown decision " ^ path);
  if not (List.exists (fun b -> List.assoc_opt path b = Some choice) all) then
    invalid_arg ("Partial.specialize: unknown choice " ^ choice);
  { t with fixed = (path, choice) :: List.remove_assoc path t.fixed }

let consistent fixed binding =
  List.for_all
    (fun (path, choice) ->
      match List.assoc_opt path binding with
      | Some c -> String.equal c choice
      | None ->
        (* A fixed decision on a branch the binding did not take is
           vacuously satisfied. *)
        true)
    fixed

let residual ?available t =
  List.filter (consistent t.fixed) (space ?available t)

let residual_count ?available t = List.length (residual ?available t)

let offline_fraction ?available t =
  let total = List.length (space ?available t) in
  let left = residual_count ?available t in
  if total <= 1 then 1.0
  else 1.0 -. (Float.of_int (max 0 (left - 1)) /. Float.of_int (total - 1))
