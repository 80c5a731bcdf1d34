"""The benchmark's workloads: which CLI commands run, on which working
points, in which row order.

A workload is a list of commands run one after another.  Every row of a
command belongs to a working-point class (e.g. "about 10^4 eV at a 50 um
packet"); each class has a committed pool of five nearby points, all with
reference values in ``reference.json``.  The seed draws one point per
class for the whole run and a row order per pass, so a claim can be
re-checked on working points and row orders not used while writing it.
Pools span +-4 % in energy, i.e. +-2 % in cell count (cells grow as
sqrt(E)), so every draw stays in its class's size and the seed moves the
table time little.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

#: The calibrated wave-number scale of the acceptance suite, sqrt(2).
K_SCALE = math.sqrt(2.0)
#: Worker threads for every CLI command (the benchmark machine has 2 CPUs).
THREADS = 2
#: CLI defaults that enter the config hash (see ``escatter.cli.RunConfig``).
GRID_CAP = 4096
DEFAULT_N_GRID = 512
DEFAULT_N_CELLS = (3140,)
DEFAULT_THETA_R = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.2, 1.4, 1.5)

RING_PACKET_NM = 50_000.0
VN_PACKET_NM = 100.0
VN_N_GRID = 1024

# pools of working points per class, five energies each (eV)
E1 = (0.96, 0.98, 1.0, 1.02, 1.04)
E5 = (4.8, 4.9, 5.0, 5.1, 5.2)
E20 = (19.2, 19.6, 20.0, 20.4, 20.8)
E100 = (96.0, 98.0, 100.0, 102.0, 104.0)
E1000 = (960.0, 980.0, 1000.0, 1020.0, 1040.0)
E10000 = (9600.0, 9800.0, 10000.0, 10200.0, 10400.0)

#: Columns of each command's table, as the CLI prints them.
COLUMNS = {
    "spinless-sweep": ("E_ev", "n_cells", "S_bits", "status"),
    "sphere-sweep": ("E_ev", "n_rings", "pixel_count", "S_bits", "status"),
    "spin-sweep": ("E_ev", "n_cells", "S_par", "S_ap", "S_par_modified",
                   "S_ap_modified", "status"),
    "vn-compare": ("E_ev", "n_grid", "S_shannon_ring", "S_vn", "abs_diff",
                   "status"),
    "postselect-range": ("E_ev", "theta_r", "n_cells", "S_spinless", "S_par",
                         "S_ap", "delta_S", "zero_weight", "status"),
}

#: Columns that count the cells a row reduces (summed into cells_per_s).
CELL_COLUMNS = ("n_cells", "n_rings", "n_grid")


@dataclass(frozen=True)
class CommandSpec:
    """One CLI command of a workload, with its row classes."""

    name: str
    packet_nm: float
    classes: tuple          # energy pools, one per row (one for postselect)
    n_grid: int | None = None
    theta_r: tuple = ()     # postselect-range rows


WORKLOADS = {
    "ring-stream": (
        CommandSpec("spinless-sweep", RING_PACKET_NM, (E1, E100, E1000, E10000)),
        CommandSpec("sphere-sweep", RING_PACKET_NM, (E1, E100, E1000)),
        CommandSpec("spin-sweep", RING_PACKET_NM, (E1, E100, E1000)),
    ),
    "meridian-vn": (
        CommandSpec("vn-compare", VN_PACKET_NM, (E5, E20), n_grid=VN_N_GRID),
    ),
    "postselect-band": (
        CommandSpec("postselect-range", RING_PACKET_NM, (E1000,),
                    theta_r=DEFAULT_THETA_R),
    ),
}


def fmt(value: float) -> str:
    """A float as the CLI prints it (12 significant digits)."""
    return format(value, ".12g")


@dataclass(frozen=True)
class Command:
    """A concrete command: working points fixed, rows in run order."""

    name: str
    packet_nm: float
    energies: tuple
    n_grid: int | None = None
    theta_r: tuple = ()

    def argv(self, threads: int = THREADS) -> list[str]:
        args = [self.name, "--packet-nm", repr(self.packet_nm),
                "--k-scale", repr(K_SCALE), "--threads", str(threads)]
        if self.name == "postselect-range":
            args += ["--energy-ev", repr(self.energies[0]),
                     "--theta-r", ",".join(repr(t) for t in self.theta_r)]
        else:
            args += ["--energy-list", ",".join(repr(e) for e in self.energies)]
        if self.n_grid is not None:
            args += ["--n-grid", str(self.n_grid)]
        return args

    def row_keys(self) -> list[str]:
        """Reference keys of the rows, in table order."""
        if self.name == "postselect-range":
            e = fmt(self.energies[0])
            return [f"{e}|{fmt(t)}" for t in self.theta_r]
        return [fmt(e) for e in self.energies]

    def config_hash(self) -> str:
        """The 12-hex config hash the CLI header must carry, recomputed
        here from the documented contract: sha256 over the canonical JSON
        of the physics parameters only."""
        physics = {
            "command": self.name,
            "e_list": [fmt(e) for e in self.energies],
            "l_nm": fmt(self.packet_nm),
            "k_scale": fmt(K_SCALE),
            "grid_cap": GRID_CAP,
            "n_grid": self.n_grid if self.n_grid is not None else DEFAULT_N_GRID,
            "n_cells": list(DEFAULT_N_CELLS),
            "channel": "spinless",
            "geometry": "rings",
            "theta_r": [fmt(t) for t in (self.theta_r or DEFAULT_THETA_R)],
        }
        canon = json.dumps(physics, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


class Plan:
    """The seeded inputs of one run: working points drawn once, and a
    fresh row order for every pass (pass 0 is the seed's primary order,
    the one the traced run replays)."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise KeyError(workload)
        self.workload = workload
        self._rng = random.Random(f"{workload}:{seed}")
        self._points = [tuple(self._rng.choice(pool) for pool in spec.classes)
                        for spec in WORKLOADS[workload]]

    def next_pass(self) -> list[Command]:
        commands = []
        for spec, energies in zip(WORKLOADS[self.workload], self._points):
            if spec.theta_r:
                rows = list(spec.theta_r)
                self._rng.shuffle(rows)
                commands.append(Command(spec.name, spec.packet_nm, energies,
                                        spec.n_grid, tuple(rows)))
            else:
                rows = list(energies)
                self._rng.shuffle(rows)
                commands.append(Command(spec.name, spec.packet_nm, tuple(rows),
                                        spec.n_grid))
        return commands


def pool_commands() -> list[Command]:
    """One command per pool point set, covering every reference row."""
    commands = []
    for specs in WORKLOADS.values():
        for spec in specs:
            energies = sorted({e for pool in spec.classes for e in pool})
            if spec.theta_r:
                commands += [Command(spec.name, spec.packet_nm, (e,), spec.n_grid,
                                     spec.theta_r) for e in energies]
            else:
                commands.append(Command(spec.name, spec.packet_nm, tuple(energies),
                                        spec.n_grid))
    return commands
