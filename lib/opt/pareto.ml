module Props = Dqo_plan.Props

type entry = {
  plan : Dqo_plan.Physical.t;
  cost : float;
  props : Props.t;
  rows : int;
}

let insert ~dominates set x =
  if List.exists (fun m -> dominates m x) set then set
  else x :: List.filter (fun m -> not (dominates x m)) set

let dominates a b = a.cost <= b.cost && Props.dominates a.props b.props
let add set e = insert ~dominates set e

let add_all set es = List.fold_left add set es

let cheapest = function
  | [] -> invalid_arg "Pareto.cheapest: empty set"
  | e :: rest ->
    List.fold_left (fun best e -> if e.cost < best.cost then e else best) e rest

let size = List.length

let pp ppf set =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "cost=%.0f rows=%d props=%a@," e.cost e.rows
        Props.pp e.props)
    set;
  Format.fprintf ppf "@]"
