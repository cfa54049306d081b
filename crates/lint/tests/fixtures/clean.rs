//! Fixture: a crate root using the sanctioned counterpart of every rule
//! — lints completely clean even under the hot-crate rule set.

use planaria_common::json;
use planaria_hash::FastHashMap;

/// Schema id, emitted through the shared json helpers below (R6-clean).
pub const SCHEMA: &str = "planaria-demo-v1";

/// Order-independent float accumulation: keys are sorted before
/// summing (R5-clean).
pub fn total(map: &FastHashMap<u32, f64>) -> f64 {
    let mut keys: Vec<u32> = map.keys().copied().collect();
    keys.sort_unstable();
    keys.iter().map(|k| *map.get(k).expect("key came from this map")).sum::<f64>()
}

/// Escaping goes through the shared helper (R6-clean).
pub fn label(s: &str) -> String {
    json::escape(s)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    // Tests may read wall clocks and iterate maps freely.
    #[test]
    fn std_map_is_fine_here() {
        let mut m = HashMap::new();
        m.insert(1u32, 2u32);
        assert_eq!(m.get(&1).copied().unwrap(), 2);
        let _t = std::time::Instant::now();
    }
}
