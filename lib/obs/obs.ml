type span_node = {
  sname : string;
  mutable attrs : (string * Json.t) list;
  mutable children : span_node list; (* reversed *)
  mutable elapsed_s : float;
}

(* Samples land in log-linear sub-buckets: 64 power-of-two ranges
   ([0,1), [1,2), [2,4), ...) each split into [sub_buckets] equal-width
   slots, HDR-histogram style.  The coarse power-of-two view serialized
   to JSON is the per-range sum; the fine view bounds any percentile
   estimate's relative error by [1 / sub_buckets] in bounded memory. *)
let coarse_buckets = 64
let sub_buckets = 16

type hist = {
  mutable count : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
  fine : int array; (* coarse_buckets * sub_buckets log-linear slots *)
}

type context = {
  mutable roots : span_node list; (* reversed, finished *)
  mutable stack : span_node list; (* open spans, innermost first *)
  counter_tbl : (string, int ref) Hashtbl.t;
  hist_tbl : (string, hist) Hashtbl.t;
}

let create_context () =
  {
    roots = [];
    stack = [];
    counter_tbl = Hashtbl.create 16;
    hist_tbl = Hashtbl.create 8;
  }

let ctx_key = Domain.DLS.new_key create_context
let current () = Domain.DLS.get ctx_key

let with_context ctx f =
  let saved = Domain.DLS.get ctx_key in
  Domain.DLS.set ctx_key ctx;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key saved) f

(* Graft a finished (typically worker-domain) context into the current
   one: its root spans become children of the innermost open span (or
   roots), keeping creation order, and its counters/histogram samples
   are added.  Both [roots] and [children] are stored reversed, so
   prepending [src.roots] keeps the adopted spans after the existing
   ones once un-reversed. *)
let adopt src =
  let dst = Domain.DLS.get ctx_key in
  if src != dst then begin
    (match dst.stack with
    | parent :: _ -> parent.children <- src.roots @ parent.children
    | [] -> dst.roots <- src.roots @ dst.roots);
    Hashtbl.iter
      (fun k r ->
        match Hashtbl.find_opt dst.counter_tbl k with
        | Some r0 -> r0 := !r0 + !r
        | None -> Hashtbl.add dst.counter_tbl k (ref !r))
      src.counter_tbl;
    Hashtbl.iter
      (fun k h ->
        match Hashtbl.find_opt dst.hist_tbl k with
        | Some h0 ->
            h0.count <- h0.count + h.count;
            h0.sum <- h0.sum +. h.sum;
            h0.minv <- Float.min h0.minv h.minv;
            h0.maxv <- Float.max h0.maxv h.maxv;
            Array.iteri (fun i n -> h0.fine.(i) <- h0.fine.(i) + n) h.fine
        | None -> Hashtbl.add dst.hist_tbl k { h with fine = Array.copy h.fine })
      src.hist_tbl;
    src.roots <- [];
    Hashtbl.reset src.counter_tbl;
    Hashtbl.reset src.hist_tbl
  end

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let reset () =
  let ctx = current () in
  ctx.roots <- [];
  Hashtbl.reset ctx.counter_tbl;
  Hashtbl.reset ctx.hist_tbl

let set_attr key v =
  if !enabled_flag then
    match (current ()).stack with
    | [] -> ()
    | s :: _ ->
        s.attrs <-
          (if List.mem_assoc key s.attrs then
             List.map (fun (k, w) -> if k = key then (k, v) else (k, w)) s.attrs
           else s.attrs @ [ (key, v) ])

let span ?(attrs = []) name f =
  if not !enabled_flag then f ()
  else begin
    let ctx = current () in
    let s = { sname = name; attrs; children = []; elapsed_s = 0.0 } in
    let t0 = Mono.now_ns () in
    ctx.stack <- s :: ctx.stack;
    Fun.protect
      ~finally:(fun () ->
        s.elapsed_s <- float_of_int (Mono.now_ns () - t0) *. 1e-9;
        (* pop [s]; tolerate unbalanced pops from nested with_context *)
        ctx.stack <-
          (match ctx.stack with
          | top :: rest when top == s -> rest
          | other -> List.filter (fun x -> x != s) other);
        match ctx.stack with
        | parent :: _ -> parent.children <- s :: parent.children
        | [] -> ctx.roots <- s :: ctx.roots)
      f
  end

let incr ?(by = 1) name =
  if by < 0 then invalid_arg "Obs.incr: counters are monotone (by < 0)";
  if !enabled_flag then begin
    let ctx = current () in
    match Hashtbl.find_opt ctx.counter_tbl name with
    | Some r -> r := !r + by
    | None -> Hashtbl.add ctx.counter_tbl name (ref by)
  end

let counter_value name =
  match Hashtbl.find_opt (current ()).counter_tbl name with
  | Some r -> !r
  | None -> 0

let counters () =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) (current ()).counter_tbl []
  |> List.sort compare

let bucket_of v =
  if v < 1.0 then 0
  else
    let i = 1 + int_of_float (Float.log2 v) in
    Stdlib.min i (coarse_buckets - 1)

(* [base b] is the lower bound of coarse bucket [b]; its width equals its
   base except for bucket 0 ([0,1), width 1). *)
let bucket_base b = if b = 0 then 0.0 else Float.pow 2.0 (float_of_int (b - 1))
let bucket_width b = if b = 0 then 1.0 else bucket_base b

let fine_slot v =
  let v = Float.max 0.0 v in
  let b = bucket_of v in
  let frac = (v -. bucket_base b) /. bucket_width b in
  let s =
    Stdlib.min (sub_buckets - 1)
      (Stdlib.max 0 (int_of_float (frac *. float_of_int sub_buckets)))
  in
  (b * sub_buckets) + s

(* upper bound of a fine slot — percentile estimates report this bound,
   so they never under-report *)
let fine_upper slot =
  let b = slot / sub_buckets and s = slot mod sub_buckets in
  bucket_base b
  +. (bucket_width b *. float_of_int (s + 1) /. float_of_int sub_buckets)

let observe name v =
  if !enabled_flag then begin
    let ctx = current () in
    let h =
      match Hashtbl.find_opt ctx.hist_tbl name with
      | Some h -> h
      | None ->
          let h =
            {
              count = 0;
              sum = 0.0;
              minv = infinity;
              maxv = neg_infinity;
              fine = Array.make (coarse_buckets * sub_buckets) 0;
            }
          in
          Hashtbl.add ctx.hist_tbl name h;
          h
    in
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    h.minv <- Float.min h.minv v;
    h.maxv <- Float.max h.maxv v;
    let s = fine_slot v in
    h.fine.(s) <- h.fine.(s) + 1
  end

(* Allocation accounting for the hot-path purge: [Gc.allocated_bytes]
   counts the calling domain's cumulative minor + major allocation, so a
   delta around a thunk is that thunk's own allocation (single-domain,
   no GC pauses needed).  When disabled this is exactly [f ()]. *)
let allocated_bytes = Gc.allocated_bytes

let with_alloc name f =
  if not !enabled_flag then f ()
  else begin
    let a0 = Gc.allocated_bytes () in
    Fun.protect
      ~finally:(fun () -> observe name (Gc.allocated_bytes () -. a0))
      f
  end

let hist_percentile h p =
  if h.count = 0 then 0.0
  else
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (p *. float_of_int h.count)))
    in
    let rec walk slot cum =
      if slot >= Array.length h.fine then h.maxv
      else
        let cum = cum + h.fine.(slot) in
        if cum >= rank then fine_upper slot else walk (slot + 1) cum
    in
    (* clamp into the exact observed range: a single-sample histogram
       reports the sample itself, and p → 1 converges to the exact max *)
    Float.min h.maxv (Float.max h.minv (walk 0 0))

let percentile name p =
  if not (Float.is_finite p) || p <= 0.0 || p > 1.0 then
    invalid_arg "Obs.percentile: p must be in (0, 1]";
  match Hashtbl.find_opt (current ()).hist_tbl name with
  | None -> 0.0
  | Some h -> hist_percentile h p

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

let rec json_of_span s =
  let base =
    [ ("name", Json.String s.sname); ("elapsed_s", Json.Float s.elapsed_s) ]
  in
  let with_attrs =
    if s.attrs = [] then base else base @ [ ("attrs", Json.Obj s.attrs) ]
  in
  let with_children =
    if s.children = [] then with_attrs
    else
      with_attrs
      @ [ ("children", Json.List (List.rev_map json_of_span s.children)) ]
  in
  Json.Obj with_children

let json_of_hist h =
  let coarse b =
    let acc = ref 0 in
    for s = b * sub_buckets to ((b + 1) * sub_buckets) - 1 do
      acc := !acc + h.fine.(s)
    done;
    !acc
  in
  let buckets = ref [] in
  for i = coarse_buckets - 1 downto 0 do
    let n = coarse i in
    if n > 0 then
      buckets :=
        Json.Obj
          [
            ("lt", Json.Float (Float.pow 2.0 (float_of_int i)));
            ("n", Json.Int n);
          ]
        :: !buckets
  done;
  Json.Obj
    [
      ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
      ("min", Json.Float (if h.count = 0 then 0.0 else h.minv));
      ("max", Json.Float (if h.count = 0 then 0.0 else h.maxv));
      ("p50", Json.Float (hist_percentile h 0.50));
      ("p95", Json.Float (hist_percentile h 0.95));
      ("p99", Json.Float (hist_percentile h 0.99));
      ("buckets", Json.List !buckets);
    ]

(* For every counter pair <p>.hit / <p>.miss with at least one event,
   derive <p>.hit_rate — so hit rates live in the trace without anyone
   maintaining a ratio by hand (counters only go up, ratios don't). *)
let derived_rates counters =
  let value k = Option.value ~default:0 (List.assoc_opt k counters) in
  List.filter_map
    (fun (k, hits) ->
      match Filename.chop_suffix_opt ~suffix:".hit" k with
      | None -> None
      | Some p ->
          let total = hits + value (p ^ ".miss") in
          if total = 0 then None
          else
            Some
              (p ^ ".hit_rate", Json.Float (float_of_int hits /. float_of_int total)))
    counters

let trace () =
  let ctx = current () in
  let hists =
    Hashtbl.fold (fun k h acc -> (k, json_of_hist h) :: acc) ctx.hist_tbl []
    |> List.sort compare
  in
  Json.Obj
    [
      ("schema", Json.String "stt-trace/1");
      ("spans", Json.List (List.rev_map json_of_span ctx.roots));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters ())) );
      ("derived", Json.Obj (derived_rates (counters ())));
      ("histograms", Json.Obj hists);
    ]
