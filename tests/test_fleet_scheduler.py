"""Affinity scheduling: trace grouping, LPT sharding, tail stealing."""

from repro.fleet import Recipe
from repro.fleet.scheduler import (
    affinity_key,
    build_shards,
    build_units,
    group_by_trace,
    order_cells,
    steal_candidates,
)
from repro.uarch.sweep import _hierarchy_key, _predictor_key


def grid_cells(kernels=("crc32", "sha", "qsort"), **overrides):
    payload = {
        "name": "sched",
        "kernels": list(kernels),
        "axes": {"l1d": [[8192, 2, 32], [16384, 2, 32]],
                 "predictor": ["gap", "bimodal"],
                 "width": [1, 2]},
    }
    payload.update(overrides)
    return Recipe(**payload).expand()


class TestOrdering:
    def test_groups_cover_all_cells_once(self):
        cells = grid_cells()
        groups = group_by_trace(cells)
        flat = [cell.cell_id for group in groups for cell in group]
        assert sorted(flat) == sorted(cell.cell_id for cell in cells)
        assert len(flat) == len(set(flat))

    def test_groups_are_single_trace(self):
        for group in group_by_trace(grid_cells()):
            assert len({cell.trace_key for cell in group}) == 1

    def test_hierarchy_outermost_sort(self):
        # Within a trace group, all cells sharing a cache hierarchy are
        # contiguous: the expensive bank is derived once per block.
        [group] = group_by_trace(grid_cells(kernels=("crc32",)))
        hierarchies = [repr(cell.config.l1d) for cell in group]
        seen = []
        for value in hierarchies:
            if not seen or seen[-1] != value:
                seen.append(value)
        assert len(seen) == len(set(seen)) == 2

    def test_order_is_deterministic(self):
        a = [cell.cell_id for cell in order_cells(grid_cells())]
        b = [cell.cell_id for cell in order_cells(grid_cells())]
        assert a == b

    def test_affinity_key_total_order(self):
        cells = grid_cells(kernels=("crc32",))
        keys = [affinity_key(cell) for cell in cells]
        assert len(set(keys)) == len(keys)


class TestSharding:
    def test_shards_partition_exactly(self):
        cells = grid_cells()
        shards = build_shards(cells, 2)
        flat = [cell.cell_id for shard in shards for cell in shard]
        assert sorted(flat) == sorted(cell.cell_id for cell in cells)

    def test_trace_groups_never_split(self):
        shards = build_shards(grid_cells(), 2)
        placement = {}
        for index, shard in enumerate(shards):
            for cell in shard:
                placement.setdefault(cell.trace_key, set()).add(index)
        assert all(len(where) == 1 for where in placement.values())

    def test_lpt_balances_equal_groups(self):
        # 3 equal-size trace groups over 3 shards: one each.
        shards = build_shards(grid_cells(), 3)
        assert sorted(len(shard) for shard in shards) == [8, 8, 8]

    def test_more_shards_than_groups_leaves_empties(self):
        shards = build_shards(grid_cells(kernels=("crc32",)), 4)
        assert len(shards) == 4
        assert sorted(len(shard) for shard in shards) == [0, 0, 0, 8]

    def test_deterministic(self):
        a = build_shards(grid_cells(), 2)
        b = build_shards(grid_cells(), 2)
        assert [[cell.cell_id for cell in shard] for shard in a] == \
            [[cell.cell_id for cell in shard] for shard in b]


class TestStealing:
    def test_steals_from_tail_of_heaviest(self):
        shards = build_shards(grid_cells(), 3)
        # Pretend shard 1 has finished half its work.
        done = {cell.cell_id for cell in shards[1][:4]}
        order = list(steal_candidates(
            shards, 2, lambda cell: cell.cell_id not in done))
        # First candidate: tail cell of a full (8-pending) victim shard.
        full_victim = shards[0]
        assert order[0].cell_id == full_victim[-1].cell_id
        # The half-done victim's cells all come after the full victim's.
        positions = {cell.cell_id: index
                     for index, cell in enumerate(order)}
        assert max(positions[cell.cell_id] for cell in full_victim) < \
            min(positions[cell.cell_id] for cell in shards[1][4:])

    def test_own_shard_excluded(self):
        shards = build_shards(grid_cells(), 3)
        own = {cell.cell_id for cell in shards[0]}
        stolen = {cell.cell_id
                  for cell in steal_candidates(shards, 0, lambda cell: True)}
        assert not stolen & own

    def test_empty_when_nothing_remains(self):
        shards = build_shards(grid_cells(), 2)
        assert list(steal_candidates(shards, 0, lambda cell: False)) == []


def shard_units(cells, n_shards):
    return [build_units(shard) for shard in build_shards(cells, n_shards)]


class TestUnits:
    def test_units_cover_every_cell_once(self):
        cells = grid_cells()
        for n_shards in (1, 2, 3):
            flat = [cell.cell_id for units in shard_units(cells, n_shards)
                    for unit in units for cell in unit.cells]
            assert sorted(flat) == sorted(cell.cell_id for cell in cells)
            assert len(flat) == len(set(flat))

    def test_unit_is_one_trace_and_one_bank_pair(self):
        # 3 kernels x 2 hierarchies x 2 predictors, 2 widths in each.
        units = build_units(order_cells(grid_cells()))
        assert len(units) == 12
        for unit in units:
            assert len({cell.trace_key for cell in unit.cells}) == 1
            assert len({(_hierarchy_key(cell.config),
                         _predictor_key(cell.config))
                        for cell in unit.cells}) == 1
            assert len(unit.cells) == 2

    def test_unit_ids_stable_across_expansions_and_shard_counts(self):
        def ids(n_shards):
            return {unit.unit_id: [cell.cell_id for cell in unit.cells]
                    for units in shard_units(grid_cells(), n_shards)
                    for unit in units}
        reference = ids(1)
        assert len(reference) == 12
        for n_shards in (1, 2, 3, 5):
            assert ids(n_shards) == reference

    def test_unit_ids_follow_member_cells(self):
        units = build_units(order_cells(grid_cells()))
        other = build_units(order_cells(grid_cells(
            axes={"l1d": [[8192, 2, 32], [16384, 2, 32]],
                  "predictor": ["gap", "bimodal"], "width": [1, 4]})))
        assert not {unit.unit_id for unit in units} & \
            {unit.unit_id for unit in other}
        assert all(unit.unit_id.startswith(unit.cells[0].kernel)
                   for unit in units)
