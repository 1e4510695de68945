(** Selection of the fractional-cell set C(u, v) to move across one edge
    (Alg. 1 line 10 / §III-C).

    Shared by the path search (speculative) and the path realization
    (actual movement): both must pick the same cells given the same grid
    state.

    Across a {e horizontal} edge the cheapest fractions are moved and the
    last pick is split so the moved width is exactly the needed flow.
    Across {e vertical} / {e D2D} edges only complete cells move (all of a
    cell's fragments); cells are taken in increasing movement cost until the
    width freed in the source bin reaches the needed flow. *)

module Grid = Tdf_grid.Grid
(** Canonical grid substrate (no local shim module). *)

val cur_disp : Grid.t -> int -> int
(** Estimated displacement of a cell at its current fragment span: distance
    from its initial position to the nearest point of the span (the D_c(u)
    term of Eq. 5). *)

type t
(** Reusable selection scratch: flat per-fragment buffers for one source
    bin (cell, ρ, source-die width, weight, cached D_c(u)), the per-edge
    unit costs, the sorted index permutation and the picks.  One lives in
    each {!Augment.state} and each {!Mover.scratch}; nothing is allocated
    per evaluation once the buffers have grown to the largest bin. *)

val create : unit -> t

val load : cur:(int -> int) -> t -> Grid.t -> Grid.bin -> unit
(** [load ~cur t grid src] copies the fragments of [src] into the scratch,
    in bin order, with [cur cell] as each cell's D_c(u).  A search loads a
    bin once per pop and evaluates every out-edge against it; the grid
    must not change between [load] and the evaluations that use it. *)

val eval :
  ?util_probe:(die:int -> inflow:float -> ok:bool -> unit) ->
  t ->
  Config.t ->
  Grid.t ->
  dst:Grid.bin ->
  kind:Grid.edge_kind ->
  need:float ->
  bool
(** [eval t cfg grid ~dst ~kind ~need] selects C(src, dst) from the loaded
    source bin, shedding at least [need] width ([freed >= need], with
    equality for horizontal edges).  Returns [false] when the bin cannot
    shed [need] width or, on a D2D edge, when moving would exceed the
    destination die's utilization cap (§III-F).  On [true], {!totals} and
    the picks describe the selection.

    The cost of moving one cell is [cost_{u,v,c} = D_c(v) − D_c(u)], plus
    the Eq. 7 congestion term on D2D edges, clamped at 0 when the
    configuration forbids negative costs.  Fragments are ordered by that
    cost with the same ternary heap sort as [Array.sort], so tied costs
    keep the order [Array.sort] gives the bin's fragment list.
    [?util_probe] observes every evaluation of the utilization cap — the
    [die_used] comparison and its outcome — so the tiled legalizer can
    later re-evaluate the same comparison against drifted die totals (the
    only die state a selection reads). *)

type totals = {
  mutable t_freed : float;
      (** width leaving the source bin, source-die units *)
  mutable t_inflow : float;
      (** width entering the destination bin, dest-die units *)
  mutable t_sel_cost : float;
      (** total displacement cost of the movement (Eq. 5/7) *)
}
(** The totals of the last successful {!eval}.  An all-float record, so a
    caller reads them unboxed. *)

val totals : t -> totals
(** The scratch's totals record (the same record for the scratch's whole
    life; read it after each {!eval}). *)

val n_picks : t -> int

val pick_cell : t -> int -> int

val pick_rho : t -> int -> float
(** [pick_cell t i] / [pick_rho t i]: the [i]-th pick of the last
    successful {!eval}, [0 <= i < n_picks t], in selection order; [ρ] is
    1.0 for whole-cell moves. *)
