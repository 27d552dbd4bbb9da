"""The stochqg layers the benchmark times, and what each should move.

Each layer is one module of the package.  ``TARGETS`` lists the public
functions whose calls become spans in a traced run; a span is named
``<module>.<function>``.  ``LAYER_MAP`` records, before anything is
measured, which end-to-end metric each layer's numbers should move and on
which workload, so a later change can be held to its prediction.
"""

from __future__ import annotations

# (module, function) pairs wrapped in a traced run.
TARGETS = (
    ("spectral", "build_vertical_operator"),
    ("spectral", "forward_transform"),
    ("spectral", "inverse_transform"),
    ("operators", "build_context"),
    ("operators", "to_modes"),
    ("operators", "from_modes"),
    ("operators", "norms"),
    ("operators", "inner_h"),
    ("lift", "precompute_mode_lifts"),
    ("lift", "solve_lift"),
    ("forcing", "make_noise_path"),
    ("forcing", "load_noise_path"),
    ("forcing", "build_forcing"),
    ("forcing", "setup_lift"),
    ("forcing", "init_ou_state"),
    ("forcing", "advance_ou"),
    ("integrator", "simulate"),
    ("integrator", "step"),
    ("integrator", "initial_state"),
    ("integrator", "energy_budget"),
    ("integrator", "xi_step"),
    ("integrator", "save_snapshot"),
    ("integrator", "write_diagnostics_csv"),
    ("attractor", "pullback_run"),
    ("attractor", "estimate_xi_star"),
    ("attractor", "sample_initial_ball"),
    ("attractor", "diameter"),
    ("attractor", "hausdorff"),
    ("config", "parse_config"),
    ("cli", "build_runtime"),
    ("cli", "cmd_simulate"),
)

SPAN_NAMES = tuple(f"{module}.{function}" for module, function in TARGETS)

# Metrics derived from spans and counters rather than read off one span:
# name -> (unit, better).  "computed" counts come from array sizes, not
# from hardware counters, and repeat exactly for a given code and config.
DERIVED = {
    "spectral.fft_mb_computed": ("MB", "lower"),
    "operators.modal_gflop_computed": ("GFLOP", "lower"),
    "forcing.ou_updates": ("count", "lower"),
    "forcing.ou_useful_ratio": ("ratio", "higher"),
    "integrator.diag_s": ("s", "lower"),
    "integrator.save_snapshot.mb": ("MB", "lower"),
    "attractor.member_runs": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.child_span_frac": ("ratio", "higher"),
}


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric a traced run reports, in BENCHMARK.json form."""
    out = []
    for span in SPAN_NAMES:
        out.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


# layer -> (end-to-end metrics it should move, workloads it shows on).
LAYER_MAP = {
    "spectral": (
        ["steps_per_s"],
        "all three; most on sim64_diag and cli128_io"),
    "operators": (
        ["steps_per_s"],
        "sim64_diag, cli128_io"),
    "lift": (
        ["setup_s"],
        "cli128_io"),
    "forcing": (
        ["wall_s (OU recursion, lift assembly)", "setup_s",
         "peak_rss_mb (build_forcing)"],
        "pullback32 (OU, lift); cli128_io (build_forcing)"),
    "integrator": (
        ["steps_per_s (diag_s)", "wall_s (I/O)"],
        "sim64_diag, cli128_io; diag_s is zero on pullback32"),
    "attractor": (
        ["wall_s"],
        "pullback32; sample_initial_ball also on cli128_io"),
    "config/cli": (
        ["setup_s", "wall_s"],
        "cli128_io"),
    "trace": (
        [],
        "all; overhead of the traced run itself"),
}
