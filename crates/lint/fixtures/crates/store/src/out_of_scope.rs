//! Fixture: `store` is not a simulation crate — HashMap is allowed
//! (its iteration order never feeds the event loop) and must not fire,
//! and neither must `std::sync` (rule `sync-in-sim`).

use std::collections::HashMap;
use std::sync::Arc;

fn f() -> HashMap<u8, u8> {
    let mut m = HashMap::new();
    m.insert(1, 2);
    m.unwrap_like(); // not a hot-path file, unwrap rule does not apply
    m
}
