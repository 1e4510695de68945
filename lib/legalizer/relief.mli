(** Fallback for supply bins whose augmenting-path search dead-ends.

    In extreme hot spots the whole-cell flow granularity can leave a bin
    with no realizable path (every branch needs to relay more width than
    intermediate bins hold).  [relieve] then relocates one cell directly to
    the cheapest bin with enough free capacity — guaranteed progress that
    keeps the driver's overflow strictly decreasing, at locally greedy
    (Tetris-like) displacement cost.  Rare on realistic utilizations; the
    driver counts its uses in the run statistics. *)

module Grid = Tdf_grid.Grid
(** Canonical grid substrate (no local shim module). *)

val relieve :
  ?mask:bool array ->
  Config.t ->
  Grid.t ->
  src:Grid.bin ->
  (int * Grid.bin) option
(** Move the cheapest movable cell of [src] into the nearest bin whose
    demand covers the cell's width (respecting the D2D configuration and
    die utilization caps).  Returns the [(cell, destination)] taken so the
    tiled commit loop can invalidate speculations reading the touched
    region, or [None] when no cell of [src] fits anywhere.  [mask], when
    given, restricts destinations to bins [b] with [mask.(b) = true] (the
    incremental legalizer's frozen-region contract).

    The destination is the lexicographic minimum of (D_c(b), the
    fragment's position in [src]'s list, bin id) — the first minimum of a
    scan over every fragment and every bin — found by visiting each die's
    rows outward from the cell's [gp_y] and stopping once a row's y
    distance alone exceeds the best cost so far.  The bins visited are
    counted once per call as ["flow3d.relief.bins_scanned"]. *)
