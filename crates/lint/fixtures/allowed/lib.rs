//! Allowlist fixture: the `.unwrap()` below is a real finding, but the
//! marker suppresses it — the report must show it allowed. The second
//! marker is its stale twin: nothing under it panics, so the marker
//! itself is the finding, and that one is denied.

pub fn startup(config: Option<Config>) -> Config {
    // lint:allow(panic): fixture — startup-time invariant, exercised by the allowlist self-test
    config.unwrap()
}

pub fn shutdown(config: Config) -> Config {
    // lint:allow(panic): fixture — stale twin, there is no panic here to excuse
    config
}
