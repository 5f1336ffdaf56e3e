//! Smoke tests that execute each example's real `main` path, so
//! `cargo test` proves the examples don't just compile but run to
//! completion. Each example is `include!`d into its own module (the
//! binaries keep working untouched via `cargo run --example ...`).

mod quickstart {
    include!("../examples/quickstart.rs");
    pub fn run() {
        main()
    }
}

mod shortcut_tree_demo {
    include!("../examples/shortcut_tree_demo.rs");
    pub fn run() {
        main()
    }
}

mod social_network_mst {
    include!("../examples/social_network_mst.rs");
    pub fn run() {
        main()
    }
}

mod network_resilience {
    include!("../examples/network_resilience.rs");
    pub fn run() {
        main()
    }
}

mod quickstart_serve {
    include!("../examples/quickstart_serve.rs");
    pub fn run() {
        main()
    }
}

#[test]
fn quickstart_runs() {
    quickstart::run();
}

#[test]
fn shortcut_tree_demo_runs() {
    shortcut_tree_demo::run();
}

// The two application-scale examples run every MST aggregation on the
// CONGEST engine; they stay in tier-1 but are the slowest entries, so
// they are also the first candidates for tier-2 if they ever grow.

#[test]
fn social_network_mst_runs() {
    social_network_mst::run();
}

#[test]
fn network_resilience_runs() {
    network_resilience::run();
}

#[test]
fn quickstart_serve_runs() {
    quickstart_serve::run();
}
