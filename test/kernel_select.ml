(* The selection kernel read back as a value, for tests: the picks and
   totals of the last successful [Select.eval] as the oracle's
   [Ref_select.selection], and a one-shot load + eval on a fresh scratch.
   The legalizer itself never builds these; it reads the scratch. *)

module Select = Tdf_legalizer.Select

let selection t : Ref_select.selection =
  let tot = Select.totals t in
  {
    Ref_select.picks =
      List.init (Select.n_picks t) (fun k ->
          { Ref_select.p_cell = Select.pick_cell t k;
            p_rho = Select.pick_rho t k });
    freed = tot.Select.t_freed;
    inflow = tot.Select.t_inflow;
    sel_cost = tot.Select.t_sel_cost;
  }

let select ?cur ?util_probe cfg grid ~src ~dst ~kind ~need =
  let t = Select.create () in
  let cur = match cur with Some f -> f | None -> Select.cur_disp grid in
  Select.load ~cur t grid src;
  if Select.eval ?util_probe t cfg grid ~dst ~kind ~need then
    Some (selection t)
  else None
