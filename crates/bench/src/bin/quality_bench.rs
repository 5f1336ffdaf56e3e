//! Cross-backend shortcut **quality bench**: every registered
//! [`lcs_shortcut::ShortcutBuilder`] backend × every graph family in the zoo, emitted
//! as `BENCH_quality.json` so congestion/dilation/rounds/messages are
//! tracked per-PR next to the paper's `k(D)` reference line.
//!
//! Usage: `quality_bench [--quick] [--out PATH] [--check PATH]
//! [--family NAME] [--backend NAME]`
//!
//! `--family` / `--backend` restrict the sweep to cells whose family /
//! backend name contains the given substring (case-sensitive) — handy
//! when iterating on one backend without paying for the full grid. The
//! default remains the full sweep. Filtered runs refuse `--check` (a
//! partial grid cannot be compared against the committed full
//! fingerprint) and only write a file when `--out` is explicit, so a
//! filtered run can never clobber the committed `BENCH_quality.json`.
//!
//! Every cell is deterministic: the build RNG is seeded from the cell's
//! `(family, backend)` names, each cell is **built twice in-run** and
//! must match bit for bit, and the emitted fingerprint folds only
//! integer results (never timings). `--check PATH` re-runs the bench
//! and compares its fingerprint against a previously committed
//! `BENCH_quality.json`, exiting nonzero on divergence — CI runs
//! `--quick --check BENCH_quality.json` as the quality regression gate
//! (the quality_bench analogue of the `sim_throughput --shards 1,4`
//! determinism gate).
//!
//! Every cell passes the independent verifier against the backend's
//! declared bound; in particular the Kogan–Parter cells are checked
//! against the paper's `O(D·k_D·log n)` / `O(k_D·log n)` targets with
//! `k_D = n^((D−2)/(2D−2))` — the `reference` block records those
//! values per family.

use lcs_bench::quality::{families, fingerprint, registry, run_cell, Cell, Family, SEED};
use lcs_bench::{json_str, value_flag};
use lcs_core::{k_d, KpParams};

fn reference_json(f: &Family) -> String {
    let params = KpParams::new(f.graph.n(), f.d.max(3)).expect("bench graphs have n >= 2");
    format!(
        concat!(
            "{{\"family\":\"{}\",\"n\":{},\"m\":{},\"d\":{},",
            "\"k_d\":{:.3},\"kp_congestion_bound\":{},\"kp_dilation_bound\":{}}}"
        ),
        f.name,
        f.graph.n(),
        f.graph.m(),
        f.d,
        k_d(f.graph.n(), f.d.max(3)),
        params.congestion_bound(),
        params.dilation_bound(),
    )
}

fn cell_json(c: &Cell) -> String {
    let declared = c.declared.map_or_else(
        || "null,\"declared_dilation\":null".to_string(),
        |(con, dil)| format!("{con},\"declared_dilation\":{dil}"),
    );
    format!(
        concat!(
            "{{\"family\":\"{}\",\"backend\":\"{}\",\"params\":\"{}\",",
            "\"n\":{},\"m\":{},\"num_parts\":{},\"shortcut_edges\":{},",
            "\"congestion\":{},\"dilation\":{},\"declared_congestion\":{},",
            "\"rounds\":{},\"messages\":{}}}"
        ),
        c.family,
        c.backend,
        c.params,
        c.n,
        c.m,
        c.num_parts,
        c.shortcut_edges,
        c.congestion,
        c.dilation,
        declared,
        c.rounds,
        c.messages,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let explicit_out = value_flag(&args, "--out");
    let out_path = explicit_out
        .clone()
        .unwrap_or_else(|| "BENCH_quality.json".to_string());
    let check_path = value_flag(&args, "--check");
    let family_filter = value_flag(&args, "--family");
    let backend_filter = value_flag(&args, "--backend");
    let filtered = family_filter.is_some() || backend_filter.is_some();
    if filtered && check_path.is_some() {
        eprintln!(
            "quality_bench: --family/--backend cannot be combined with --check \
             (a partial grid cannot be compared against the committed full fingerprint)"
        );
        std::process::exit(2);
    }

    let fams = families(quick, SEED);
    let mut cells: Vec<Cell> = Vec::new();
    for fam in &fams {
        if family_filter
            .as_deref()
            .is_some_and(|f| !fam.name.contains(f))
        {
            continue;
        }
        for backend in registry(fam.d) {
            if backend_filter
                .as_deref()
                .is_some_and(|f| !backend.name().contains(f))
            {
                continue;
            }
            if !backend.applicable(&fam.graph, &fam.partition) {
                eprintln!(
                    "{:>12} / {:<18} skipped (inapplicable at D={})",
                    fam.name,
                    backend.name(),
                    fam.d
                );
                continue;
            }
            let cell = run_cell(fam, backend.as_ref());
            eprintln!(
                "{:>12} / {:<18} congestion={:<4} dilation={:<4} rounds={:<5} \
                 messages={:<7} edges={}",
                cell.family,
                cell.backend,
                cell.congestion,
                cell.dilation,
                cell.rounds,
                cell.messages,
                cell.shortcut_edges,
            );
            cells.push(cell);
        }
    }

    let fp = fingerprint(&cells);
    let mode = if quick { "quick" } else { "full" };
    let refs = fams
        .iter()
        .map(reference_json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let body = cells
        .iter()
        .map(cell_json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"quality\",\n  \"mode\": \"{}\",\n",
            "  \"fingerprint\": \"{:#018x}\",\n",
            "  \"reference\": [\n    {}\n  ],\n",
            "  \"cells\": [\n    {}\n  ]\n}}\n"
        ),
        mode, fp, refs, body
    );

    if let Some(path) = check_path {
        // Gate mode: compare against the committed results instead of
        // overwriting them.
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("quality_bench --check: cannot read {path}: {e}"));
        let want_mode = json_str(&committed, "mode").unwrap_or("?");
        let want_fp = json_str(&committed, "fingerprint").unwrap_or("?");
        if want_mode != mode {
            eprintln!(
                "quality_bench: committed {path} is a \"{want_mode}\" run; \
                 this is a \"{mode}\" run — modes must match to compare"
            );
            std::process::exit(2);
        }
        let got_fp = format!("{fp:#018x}");
        if want_fp != got_fp {
            eprintln!(
                "QUALITY REGRESSION: fingerprint {got_fp} does not match \
                 committed {want_fp} in {path}"
            );
            eprintln!("(regenerate with `quality_bench --quick --out {path}` if intentional)");
            std::process::exit(1);
        }
        eprintln!("quality fingerprint check: ok ({got_fp})");
    } else if !filtered || explicit_out.is_some() {
        std::fs::write(&out_path, &json).expect("write BENCH_quality.json");
        eprintln!("wrote {out_path}");
    } else {
        eprintln!("filtered run: results to stdout only (pass --out PATH to write a file)");
    }
    println!("{json}");
    if filtered && cells.is_empty() {
        eprintln!("quality_bench: the --family/--backend filters matched no cells");
        std::process::exit(2);
    }
}
