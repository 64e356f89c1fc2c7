(* Naive reference graph algorithms, the independent oracle the checker
   kernels are tested against.

   Each function here deliberately uses a different algorithm from the
   production kernel it checks, so that one bug cannot pass both:
   reachability is a fixpoint over the edge list (not a DFS), SCCs are
   classes of mutual reachability (not Tarjan), distances come from
   Bellman-Ford relaxation (not BFS), longest paths from memoised
   recursion with cycles found by the SCC oracle (not an iterative DFS
   with a visiting mark), and weak fairness applies its rule directly to
   each oracle SCC.  Everything is quadratic or worse: graphs here have
   a dozen states.

   A graph is an array of successor rows, as [Csr.of_rows] takes them. *)

let edges (g : int array array) =
  List.concat
    (List.mapi
       (fun i row -> List.map (fun j -> (i, j)) (Array.to_list row))
       (Array.to_list g))

(* The least set containing [seeds] and closed under [es]. *)
let closure n es seeds =
  let r = Array.make n false in
  List.iter (fun s -> r.(s) <- true) seeds;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (i, j) ->
        if r.(i) && not r.(j) then begin
          r.(j) <- true;
          changed := true
        end)
      es
  done;
  r

let forward g seeds = closure (Array.length g) (edges g) seeds

let backward g seeds =
  closure (Array.length g) (List.map (fun (i, j) -> (j, i)) (edges g)) seeds

(* The subgraph induced by [mask]. *)
let restrict g mask =
  Array.mapi
    (fun i row ->
      if mask.(i) then
        Array.of_list (List.filter (fun j -> mask.(j)) (Array.to_list row))
      else [||])
    g

(* [scc g].(i) is the least state mutually reachable with [i]. *)
let scc g =
  let n = Array.length g in
  let reach = Array.init n (fun i -> forward g [ i ]) in
  Array.init n (fun i ->
      let rec least j =
        if reach.(i).(j) && reach.(j).(i) then j else least (j + 1)
      in
      least 0)

(* Do two component labellings induce the same partition? *)
let same_partition a b =
  let states = List.init (Array.length a) Fun.id in
  Array.length b = Array.length a
  && List.for_all
       (fun i ->
         List.for_all (fun j -> (a.(i) = a.(j)) = (b.(i) = b.(j))) states)
       states

(* The oracle SCCs with at least two states (graphs here have no
   self-loops, so these are exactly the cyclic ones), as ascending
   member lists. *)
let cyclic_sccs g =
  let comp = scc g in
  let states = List.init (Array.length g) Fun.id in
  List.filter_map
    (fun c ->
      let members = List.filter (fun i -> comp.(i) = c) states in
      if List.length members >= 2 then Some members else None)
    (List.sort_uniq compare (Array.to_list comp))

let has_cycle_within g mask = cyclic_sccs (restrict g mask) <> []

(* Bellman-Ford with unit weights: [distances g src].(j) is the length
   of a shortest path, or [-1] when [j] is unreachable. *)
let distances g src =
  let n = Array.length g in
  let d = Array.make n (-1) in
  d.(src) <- 0;
  let es = edges g in
  for _ = 1 to n do
    List.iter
      (fun (i, j) ->
        if d.(i) >= 0 && (d.(j) < 0 || d.(i) + 1 < d.(j)) then
          d.(j) <- d.(i) + 1)
      es
  done;
  d

(* [None] when the masked subgraph has a cycle; else, per masked state,
   the most transitions a run can take while inside the mask (the step
   that leaves it counts), and 0 for unmasked states. *)
let longest_within g mask =
  if has_cycle_within g mask then None
  else begin
    let memo = Array.make (Array.length g) None in
    let rec len i =
      match memo.(i) with
      | Some l -> l
      | None ->
          let step j = 1 + if mask.(j) then len j else 0 in
          let l = Array.fold_left (fun best j -> max best (step j)) 0 g.(i) in
          memo.(i) <- Some l;
          l
    in
    Some (Array.mapi (fun i m -> if m then len i else 0) mask)
  end

(* The weakly-fair SCCs of the subgraph induced by [mask]: those where
   every action enabled at all members fires along some edge of the
   subgraph that stays inside. *)
let fair_sccs (tables : int array array) g mask =
  let sub = restrict g mask in
  List.filter
    (fun members ->
      Array.for_all
        (fun next ->
          List.exists (fun i -> next.(i) < 0) members
          || List.exists
               (fun i ->
                 List.mem next.(i) members && Array.mem next.(i) sub.(i))
               members)
        tables)
    (cyclic_sccs sub)
