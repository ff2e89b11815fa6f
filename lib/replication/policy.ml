module World = Hybrid_p2p.World
module Peer = Hybrid_p2p.Peer
module Config = Hybrid_p2p.Config

(* The next [factor] live t-peers clockwise from [home] on the sorted
   oracle ring, excluding [home] itself.  With fewer than [factor + 1]
   t-peers the list is simply shorter: the ID space has no more distinct
   segments to copy into. *)
let ring_successors w ~home ~factor =
  let arr = World.t_peers w in
  let n = Array.length arr in
  let idx =
    match World.successor_index w home.Peer.p_id with
    | i when i >= 0 && arr.(i) == home -> i
    | _ ->
      (* [home] is off the ring, or shares its p_id with another t-peer
         and the search landed on that one: scan *)
      let idx = ref (-1) in
      Array.iteri (fun i p -> if p == home then idx := i) arr;
      !idx
  in
  if idx < 0 || n <= 1 then []
  else List.init (min factor (n - 1)) (fun k -> arr.((idx + k + 1) mod n))

let targets w ~primary =
  let config = w.World.config in
  let factor = config.Config.replication_factor in
  if factor <= 0 || not primary.Peer.alive then []
  else
    match config.Config.replica_placement with
    | Config.Ring_successors -> (
      match primary.Peer.t_home with
      | Some home when home.Peer.alive -> ring_successors w ~home ~factor
      | Some _ | None -> [])
    | Config.Tree_neighbors ->
      Peer.tree_neighbors primary
      |> List.filter (fun q -> q.Peer.alive)
      |> List.filteri (fun i _ -> i < factor)

let expected_copies w ~primary = List.length (targets w ~primary)
