open Stt_lp

type logsize = { d : Rat.t; q : Rat.t }

let logsize_zero = { d = Rat.zero; q = Rat.zero }
let logsize_d = { d = Rat.one; q = Rat.zero }
let logsize_q = { d = Rat.zero; q = Rat.one }
let logsize_add a b = { d = Rat.add a.d b.d; q = Rat.add a.q b.q }
let logsize_scale s a = { d = Rat.mul s a.d; q = Rat.mul s a.q }
let logsize_eval ~logd ~logq a = Rat.add (Rat.mul a.d logd) (Rat.mul a.q logq)

let pp_logsize ppf a =
  Format.fprintf ppf "%a·logD + %a·logQ" Rat.pp a.d Rat.pp a.q

type t = { x : Varset.t; y : Varset.t; bound : logsize }

let make ~x ~y bound =
  if not (Varset.strict_subset x y) then
    invalid_arg "Degree.make: need X ⊂ Y";
  { x; y; bound }

let cardinality y bound = make ~x:Varset.empty ~y bound
let is_cardinality t = Varset.is_empty t.x

let default_dc (cq : Cq.t) =
  let constraints =
    List.map (fun a -> cardinality (Cq.atom_vars a) logsize_d) cq.Cq.atoms
  in
  (* distinct atoms may share a hyperedge (e.g. self-joins): dedup *)
  List.sort_uniq compare constraints

let default_ac (cqap : Cq.cqap) =
  if Varset.is_empty cqap.Cq.access then []
  else [ cardinality cqap.Cq.access logsize_q ]

let smaller a b =
  (* lexicographic by (d, q) *)
  let c = Rat.compare a.d b.d in
  if c <> 0 then c < 0 else Rat.compare a.q b.q < 0

let dedup cs =
  let table = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let key = (Varset.to_int c.x, Varset.to_int c.y) in
      match Hashtbl.find_opt table key with
      | Some c' when not (smaller c.bound c'.bound) -> ()
      | _ -> Hashtbl.replace table key c)
    cs;
  Hashtbl.fold (fun _ c acc -> c :: acc) table []
  |> List.sort (fun a b ->
         compare
           (Varset.to_int a.x, Varset.to_int a.y)
           (Varset.to_int b.x, Varset.to_int b.y))

type split = { sx : Varset.t; sy : Varset.t; sbound : logsize }

let splits cs =
  let acc = ref [] in
  List.iter
    (fun c ->
      if is_cardinality c then
        let z = c.y in
        List.iter
          (fun y ->
            if Varset.cardinal y >= 2 then
              List.iter
                (fun x ->
                  if (not (Varset.is_empty x)) && Varset.strict_subset x y then
                    acc := { sx = x; sy = y; sbound = c.bound } :: !acc)
                (Varset.subsets y))
          (Varset.subsets z))
    cs;
  List.sort_uniq compare !acc

let pp ppf c =
  Format.fprintf ppf "(%a, %a, %a)" Varset.pp c.x Varset.pp c.y pp_logsize
    c.bound
