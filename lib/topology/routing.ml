type source_result = { dist : float array; prev : int array }

type graph_routed = {
  graph : Graph.t;
  cache : source_result option array;
  max_cached : int;
  (* Intrusive LRU list over cached sources: [lru_prev]/[lru_next] chain
     exactly the sources whose cache slot is [Some], so touching a source
     and evicting the coldest one are both O(1) pointer splices — no scan,
     no stamps. *)
  lru_prev : int array;
  lru_next : int array;
  mutable lru_head : int; (* least recently used cached source; -1 = none *)
  mutable lru_tail : int; (* most recently used cached source; -1 = none *)
  mutable cached : int;
}

(* Precomputed link-state tables over a core/stub hierarchy (the TinyOS
   LinkStateC idea: pay for SPF once, amortize over every routed
   message).  The decomposition exploits the topology's structure: a
   stub domain touches the rest of the graph through exactly one access
   link, so every inter-domain shortest path factors as
   stub -> gateway -> transit backbone -> gateway -> stub.  We therefore
   store all-pairs tables only *inside* each (small) stub domain and
   over the transit backbone — O(sum s_i^2 + g^2) memory, not O(n^2) —
   and answer any [distance]/[hop_count] query with O(1) arithmetic over
   those tables. *)
type link_state = {
  ls_graph : Graph.t;
  is_transit : bool array;
  domain_of : int array; (* stub-domain id per node; -1 for transit nodes *)
  dom_members : int array array; (* domain -> member nodes *)
  dom_index : int array; (* node -> its index inside its domain *)
  dom_gateway : int array; (* domain -> gateway node, -1 when isolated *)
  dom_attach : int array; (* domain -> transit node of the access link *)
  dom_access : float array; (* domain -> access-link latency *)
  (* per-domain all-pairs, s*s row-major in domain-local indices *)
  dom_dist : float array array;
  dom_next : int array array; (* first hop, as a global node id; -1 = none *)
  dom_hops : int array array;
  (* per node, the way up to the backbone: the transit node it enters at
     (itself for a transit node; -1 when its domain has no access link),
     and the distance and hops to get there *)
  attach : int array;
  up_dist : float array;
  up_hops : int array;
  (* transit backbone all-pairs, g*g row-major in transit indices *)
  t_index : int array; (* node -> transit index; -1 for stub nodes *)
  t_nodes : int array;
  t_dist : float array;
  t_next : int array; (* first hop, as a global node id; -1 = none *)
  t_hops : int array;
}

(* [derived]: the classification came from the graph's bridges
   ({!create}), so {!refresh} derives it again; otherwise the caller's
   [is_transit] is kept. *)
type ls_box = { mutable ls : link_state; derived : bool }

(* [Synthetic] short-circuits path computation entirely: every distinct
   pair is one hop at a fixed latency.  Million-node underlays cannot
   afford per-source Dijkstra (the cache alone is O(n) per source), and
   overlay-scalability studies do not need real path diversity. *)
type t =
  | Graph_routed of graph_routed
  | Synthetic of { graph : Graph.t; latency : float }
  | Link_state of ls_box

let dijkstra ?(max_cached_sources = max_int) graph =
  if max_cached_sources < 1 then invalid_arg "Routing.dijkstra: max_cached_sources";
  let n = Graph.node_count graph in
  Graph_routed
    {
      graph;
      cache = Array.make n None;
      max_cached = max_cached_sources;
      lru_prev = Array.make n (-1);
      lru_next = Array.make n (-1);
      lru_head = -1;
      lru_tail = -1;
      cached = 0;
    }

let synthetic ~nodes ~latency =
  if nodes < 0 then invalid_arg "Routing.synthetic: negative node count";
  if latency <= 0.0 then invalid_arg "Routing.synthetic: latency must be positive";
  Synthetic { graph = Graph.create nodes; latency }

(* Dijkstra with a simple binary heap of (distance, node). *)
module Heap = struct
  type t = { mutable data : (float * int) array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let push h x =
    let cap = Array.length h.data in
    if h.size = cap then begin
      let data = Array.make (if cap = 0 then 16 else cap * 2) x in
      Array.blit h.data 0 data 0 h.size;
      h.data <- data
    end;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(!i) in
      h.data.(!i) <- h.data.(p);
      h.data.(p) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.data.(0) <- h.data.(h.size);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
          if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
          if !smallest = !i then continue := false
          else begin
            let tmp = h.data.(!i) in
            h.data.(!i) <- h.data.(!smallest);
            h.data.(!smallest) <- tmp;
            i := !smallest
          end
        done
      end;
      Some top
    end
end

let single_source graph src =
  let n = Graph.node_count graph in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(src) <- 0.0;
  let heap = Heap.create () in
  Heap.push heap (0.0, src);
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
      if not settled.(u) then begin
        settled.(u) <- true;
        Graph.iter_neighbors graph u (fun v w ->
            let alt = d +. w in
            if alt < dist.(v) then begin
              dist.(v) <- alt;
              prev.(v) <- u;
              Heap.push heap (alt, v)
            end)
      end;
      loop ()
  in
  loop ();
  { dist; prev }

(* --- graph-routed cache: intrusive LRU --- *)

let lru_unlink t src =
  let p = t.lru_prev.(src) and n = t.lru_next.(src) in
  if p >= 0 then t.lru_next.(p) <- n else t.lru_head <- n;
  if n >= 0 then t.lru_prev.(n) <- p else t.lru_tail <- p;
  t.lru_prev.(src) <- -1;
  t.lru_next.(src) <- -1

let lru_push_tail t src =
  t.lru_prev.(src) <- t.lru_tail;
  t.lru_next.(src) <- -1;
  if t.lru_tail >= 0 then t.lru_next.(t.lru_tail) <- src else t.lru_head <- src;
  t.lru_tail <- src

(* Evict the least-recently-used cached source: the head of the
   intrusive list, an O(1) splice. *)
let evict_lru t =
  let victim = t.lru_head in
  if victim >= 0 then begin
    lru_unlink t victim;
    t.cache.(victim) <- None;
    t.cached <- t.cached - 1
  end

let source_result t src =
  match t.cache.(src) with
  | Some r ->
    if t.lru_tail <> src then begin
      lru_unlink t src;
      lru_push_tail t src
    end;
    r
  | None ->
    if t.cached >= t.max_cached then evict_lru t;
    let r = single_source t.graph src in
    t.cache.(src) <- Some r;
    t.cached <- t.cached + 1;
    lru_push_tail t src;
    r

let drop_cache t =
  for src = 0 to Array.length t.cache - 1 do
    t.cache.(src) <- None;
    t.lru_prev.(src) <- -1;
    t.lru_next.(src) <- -1
  done;
  t.lru_head <- -1;
  t.lru_tail <- -1;
  t.cached <- 0

(* --- core/stub classification from bridges --- *)

(* A node is a stub node when it lies on the strictly smaller side of
   some bridge of its connected component.  Contracting the
   2-edge-connected pieces leaves a tree whose edges are the bridges;
   the nodes on no smaller side form its weighted centroid (one piece,
   or two joined by a bridge that splits the component evenly), so the
   core is connected and every maximal stub region hangs off it through
   exactly one bridge — the one-access-link shape [build_link_state]
   needs, on any graph.  One Tarjan DFS computes the bridges (low-link)
   and subtree sizes; a subtree is a contiguous preorder interval, so
   each smaller side is marked with a difference array.  O(V + E) time
   and memory. *)
let core_nodes graph =
  let n = Graph.node_count graph in
  let pre = Array.make n (-1) in
  let low = Array.make n 0 in
  let size = Array.make n 1 in
  let parent = Array.make n (-1) in
  let order = Array.make n 0 in (* preorder position -> node *)
  let counter = ref 0 in
  let rec visit u =
    pre.(u) <- !counter;
    low.(u) <- !counter;
    order.(!counter) <- u;
    incr counter;
    Graph.iter_neighbors graph u (fun v _ ->
        if pre.(v) < 0 then begin
          parent.(v) <- u;
          visit v;
          low.(u) <- min low.(u) low.(v);
          size.(u) <- size.(u) + size.(v)
        end
        else if v <> parent.(u) then low.(u) <- min low.(u) pre.(v))
  in
  let marks = Array.make (n + 1) 0 in
  let mark a b =
    if a < b then begin
      marks.(a) <- marks.(a) + 1;
      marks.(b) <- marks.(b) - 1
    end
  in
  for root = 0 to n - 1 do
    if pre.(root) < 0 then begin
      let first = !counter in
      visit root;
      let last = !counter in
      let comp = last - first in
      for i = first + 1 to last - 1 do
        let c = order.(i) in
        if low.(c) > pre.(parent.(c)) then begin
          (* bridge parent(c) -- c: the subtree of c against the rest *)
          let sub = size.(c) in
          if 2 * sub < comp then mark i (i + sub)
          else if 2 * sub > comp then begin
            mark first i;
            mark (i + sub) last
          end
        end
      done
    end
  done;
  let core = Array.make n true in
  let depth = ref 0 in
  for i = 0 to n - 1 do
    depth := !depth + marks.(i);
    if !depth > 0 then core.(order.(i)) <- false
  done;
  core

(* --- link-state construction --- *)

(* All-pairs shortest paths over the subgraph induced by [members]
   (neighbours outside the set are ignored): one heap Dijkstra per
   source, O(s * E_s log s) time for s members and E_s edges among
   them, s^2 entries per table. *)
let all_pairs graph ~members ~index_of ~in_set =
  let s = Array.length members in
  let dist = Array.make (s * s) infinity in
  let next = Array.make (s * s) (-1) in
  let hops = Array.make (s * s) 0 in
  let settled = Array.make s false in
  let heap = Heap.create () in
  for si = 0 to s - 1 do
    Array.fill settled 0 s false;
    let row = si * s in
    dist.(row + si) <- 0.0;
    Heap.push heap (0.0, si);
    let rec loop () =
      match Heap.pop heap with
      | None -> ()
      | Some (d, ui) ->
        if not settled.(ui) then begin
          settled.(ui) <- true;
          Graph.iter_neighbors graph members.(ui) (fun v w ->
              if in_set v then begin
                let vi = index_of v in
                let alt = d +. w in
                if alt < dist.(row + vi) then begin
                  dist.(row + vi) <- alt;
                  next.(row + vi) <- (if ui = si then v else next.(row + ui));
                  hops.(row + vi) <- hops.(row + ui) + 1;
                  Heap.push heap (alt, vi)
                end
              end)
        end;
        loop ()
    in
    loop ()
  done;
  (dist, next, hops)

let domain_tables ls d =
  all_pairs ls.ls_graph ~members:ls.dom_members.(d)
    ~index_of:(fun v -> ls.dom_index.(v))
    ~in_set:(fun v -> ls.domain_of.(v) = d)

let transit_tables ls =
  all_pairs ls.ls_graph ~members:ls.t_nodes
    ~index_of:(fun v -> ls.t_index.(v))
    ~in_set:(fun v -> ls.is_transit.(v))

(* Re-derive the way up to the backbone for every member of domain [d]
   from its intra-domain tables and access link. *)
let set_up ls d =
  let members = ls.dom_members.(d) in
  let s = Array.length members in
  let gw = ls.dom_gateway.(d) in
  Array.iter
    (fun u ->
      if gw < 0 then ls.up_dist.(u) <- infinity
      else begin
        let k = (ls.dom_index.(u) * s) + ls.dom_index.(gw) in
        ls.attach.(u) <- ls.dom_attach.(d);
        ls.up_dist.(u) <- ls.dom_dist.(d).(k) +. ls.dom_access.(d);
        ls.up_hops.(u) <- ls.dom_hops.(d).(k) + 1
      end)
    members

let build_link_state graph ~transit =
  let n = Graph.node_count graph in
  (* stub domains = connected components of the stub-only subgraph *)
  let domain_of = Array.make n (-1) in
  let members_rev = ref [] in
  let domain_count = ref 0 in
  let stack = ref [] in
  for u = 0 to n - 1 do
    if (not transit.(u)) && domain_of.(u) < 0 then begin
      let d = !domain_count in
      incr domain_count;
      let acc = ref [] in
      domain_of.(u) <- d;
      stack := [ u ];
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
          stack := rest;
          acc := v :: !acc;
          Graph.iter_neighbors graph v (fun w _ ->
              if (not transit.(w)) && domain_of.(w) < 0 then begin
                domain_of.(w) <- d;
                stack := w :: !stack
              end)
      done;
      members_rev := Array.of_list (List.rev !acc) :: !members_rev
    end
  done;
  let dom_members = Array.of_list (List.rev !members_rev) in
  let domains = Array.length dom_members in
  let dom_index = Array.make n 0 in
  Array.iter
    (fun members -> Array.iteri (fun i u -> dom_index.(u) <- i) members)
    dom_members;
  (* access links: each domain must touch the backbone through at most
     one stub-to-transit edge, the structural invariant the whole
     decomposition rests on *)
  let dom_gateway = Array.make domains (-1) in
  let dom_attach = Array.make domains (-1) in
  let dom_access = Array.make domains infinity in
  Array.iteri
    (fun d members ->
      Array.iter
        (fun u ->
          Graph.iter_neighbors graph u (fun v w ->
              if transit.(v) then begin
                if dom_gateway.(d) >= 0 then
                  invalid_arg
                    (Printf.sprintf
                       "Routing.link_state: stub domain %d has several access \
                        links (not transit-stub shaped)"
                       d);
                dom_gateway.(d) <- u;
                dom_attach.(d) <- v;
                dom_access.(d) <- w
              end))
        members)
    dom_members;
  let t_nodes =
    let acc = ref [] in
    for u = n - 1 downto 0 do
      if transit.(u) then acc := u :: !acc
    done;
    Array.of_list !acc
  in
  let t_index = Array.make n (-1) in
  Array.iteri (fun i u -> t_index.(u) <- i) t_nodes;
  let ls =
    {
      ls_graph = graph;
      is_transit = transit;
      domain_of;
      dom_members;
      dom_index;
      dom_gateway;
      dom_attach;
      dom_access;
      dom_dist = Array.make domains [||];
      dom_next = Array.make domains [||];
      dom_hops = Array.make domains [||];
      attach = Array.init n (fun u -> if transit.(u) then u else -1);
      up_dist = Array.make n 0.0;
      up_hops = Array.make n 0;
      t_index;
      t_nodes;
      t_dist = [||];
      t_next = [||];
      t_hops = [||];
    }
  in
  for d = 0 to domains - 1 do
    let dist, next, hops = domain_tables ls d in
    ls.dom_dist.(d) <- dist;
    ls.dom_next.(d) <- next;
    ls.dom_hops.(d) <- hops;
    set_up ls d
  done;
  let t_dist, t_next, t_hops = transit_tables ls in
  { ls with t_dist; t_next; t_hops }

let link_state graph ~is_transit =
  let transit = Array.init (Graph.node_count graph) is_transit in
  Link_state { ls = build_link_state graph ~transit; derived = false }

let create graph =
  Link_state { ls = build_link_state graph ~transit:(core_nodes graph); derived = true }

(* --- link-state queries --- *)

(* Both queries are single functions over local bindings and table
   reads — no tuples, no boxed intermediates — because they run once per
   routed message.  Reachability is read off the int tables: a stub
   node's [attach] is -1 when its domain has no access link, and a
   first hop of -1 means no path. *)
let ls_distance ls u v =
  if u = v then 0.0
  else begin
    let du = ls.domain_of.(u) in
    if du >= 0 && du = ls.domain_of.(v) then begin
      let s = Array.length ls.dom_members.(du) in
      ls.dom_dist.(du).((ls.dom_index.(u) * s) + ls.dom_index.(v))
    end
    else begin
      let au = ls.attach.(u) and av = ls.attach.(v) in
      if au < 0 || av < 0 then infinity
      else begin
        let g = Array.length ls.t_nodes in
        ls.up_dist.(u)
        +. ls.t_dist.((ls.t_index.(au) * g) + ls.t_index.(av))
        +. ls.up_dist.(v)
      end
    end
  end

let ls_hop_count ls u v =
  if u = v then 0
  else begin
    let du = ls.domain_of.(u) in
    if du >= 0 && du = ls.domain_of.(v) then begin
      let s = Array.length ls.dom_members.(du) in
      let k = (ls.dom_index.(u) * s) + ls.dom_index.(v) in
      if ls.dom_next.(du).(k) < 0 then raise Not_found;
      ls.dom_hops.(du).(k)
    end
    else begin
      let au = ls.attach.(u) and av = ls.attach.(v) in
      if au < 0 || av < 0 then raise Not_found;
      let g = Array.length ls.t_nodes in
      let k = (ls.t_index.(au) * g) + ls.t_index.(av) in
      if au <> av && ls.t_next.(k) < 0 then raise Not_found;
      ls.up_hops.(u) + ls.t_hops.(k) + ls.up_hops.(v)
    end
  end

let ls_intra_next ls d u v =
  let s = Array.length ls.dom_members.(d) in
  ls.dom_next.(d).((ls.dom_index.(u) * s) + ls.dom_index.(v))

let ls_t_next ls u v =
  let g = Array.length ls.t_nodes in
  ls.t_next.((ls.t_index.(u) * g) + ls.t_index.(v))

(* First hop from [u] toward [v], for a reachable pair.  Mirrors the
   distance decomposition: head for the gateway, cross the backbone to
   the destination domain's attachment, drop down its access link,
   finish inside the domain. *)
let ls_next_hop ls u v =
  let du = ls.domain_of.(u) and dv = ls.domain_of.(v) in
  if du >= 0 && du = dv then ls_intra_next ls du u v
  else if du >= 0 then begin
    let gw = ls.dom_gateway.(du) in
    if u = gw then ls.dom_attach.(du) else ls_intra_next ls du u gw
  end
  else if dv < 0 then ls_t_next ls u v
  else begin
    let a = ls.dom_attach.(dv) in
    if u = a then ls.dom_gateway.(dv) else ls_t_next ls u a
  end

let ls_path ls u v =
  if ls_distance ls u v = infinity then raise Not_found;
  let rec collect node acc =
    if node = v then List.rev (v :: acc)
    else collect (ls_next_hop ls node v) (node :: acc)
  in
  collect u []

(* --- incremental recomputation --- *)

let rebuild_domain ls d =
  let dist, next, hops = domain_tables ls d in
  ls.dom_dist.(d) <- dist;
  ls.dom_next.(d) <- next;
  ls.dom_hops.(d) <- hops;
  set_up ls d

let rebuild_transit ls =
  let dist, next, hops = transit_tables ls in
  Array.blit dist 0 ls.t_dist 0 (Array.length dist);
  Array.blit next 0 ls.t_next 0 (Array.length next);
  Array.blit hops 0 ls.t_hops 0 (Array.length hops)

(* Latencies never change which edges are bridges, so a derived
   classification survives every [update_link]. *)
let update_link t u v ~latency =
  match t with
  | Synthetic _ -> invalid_arg "Routing.update_link: synthetic router"
  | Graph_routed r ->
    Graph.set_latency r.graph u v ~latency;
    (* every cached single-source tree may route through the edge *)
    drop_cache r
  | Link_state b ->
    let ls = b.ls in
    Graph.set_latency ls.ls_graph u v ~latency;
    let du = ls.domain_of.(u) and dv = ls.domain_of.(v) in
    if du < 0 && dv < 0 then rebuild_transit ls
    else if du >= 0 && du = dv then rebuild_domain ls du
    else begin
      (* the only stub-to-transit edges are access links *)
      let d = if du >= 0 then du else dv in
      ls.dom_access.(d) <- latency;
      set_up ls d
    end

let refresh t =
  match t with
  | Synthetic _ -> ()
  | Graph_routed r -> drop_cache r
  | Link_state b ->
    let graph = b.ls.ls_graph in
    let transit = if b.derived then core_nodes graph else b.ls.is_transit in
    b.ls <- build_link_state graph ~transit

(* --- the common query surface --- *)

let distance t u v =
  match t with
  | Graph_routed t -> (source_result t u).dist.(v)
  | Synthetic { latency; _ } -> if u = v then 0.0 else latency
  | Link_state b -> ls_distance b.ls u v

let path t u v =
  match t with
  | Graph_routed t ->
    let r = source_result t u in
    if r.dist.(v) = infinity then raise Not_found;
    let rec build acc node =
      if node = u then u :: acc else build (node :: acc) r.prev.(node)
    in
    build [] v
  | Synthetic _ -> if u = v then [ u ] else [ u; v ]
  | Link_state b -> ls_path b.ls u v

(* Hop counting never materializes the path: graph mode walks the
   predecessor chain, link-state mode adds three table entries. *)
let hop_count t u v =
  match t with
  | Graph_routed t ->
    if u = v then 0
    else begin
      let r = source_result t u in
      if r.dist.(v) = infinity then raise Not_found;
      let hops = ref 0 in
      let node = ref v in
      while !node <> u do
        node := r.prev.(!node);
        incr hops
      done;
      !hops
    end
  | Synthetic _ -> if u = v then 0 else 1
  | Link_state b -> ls_hop_count b.ls u v

let eccentricity t u =
  match t with
  | Graph_routed t ->
    let r = source_result t u in
    Array.fold_left (fun acc d -> if d <> infinity && d > acc then d else acc) 0.0 r.dist
  | Synthetic { latency; _ } -> latency
  | Link_state b ->
    let ls = b.ls in
    let n = Graph.node_count ls.ls_graph in
    let acc = ref 0.0 in
    for v = 0 to n - 1 do
      let d = ls_distance ls u v in
      if d <> infinity && d > !acc then acc := d
    done;
    !acc

let graph = function
  | Graph_routed t -> t.graph
  | Synthetic { graph; _ } -> graph
  | Link_state b -> b.ls.ls_graph
