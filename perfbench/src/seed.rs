//! Seed derivation: every input of a run comes from the workload seed
//! through these functions, so one seed gives the same inputs on any
//! machine and any commit.

/// `splitmix64`: the standard 64-bit mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A well-separated stream value for `(seed, stream, index)`: distinct
/// streams (inputs of different kinds) and indices never share a value by
/// construction of the chained mix.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ stream) ^ index)
}

/// A value in `0..n` drawn from `(seed, stream, index)`; `n` must be
/// positive.
pub fn pick(seed: u64, stream: u64, index: u64, n: usize) -> usize {
    assert!(n > 0, "cannot pick from an empty range");
    // Widening multiply maps the 64-bit draw onto 0..n without the modulo
    // bias of `% n`.
    let wide = u128::from(derive(seed, stream, index)) * n as u128;
    usize::try_from(wide >> 64).expect("the high half is below n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        // First outputs of the reference implementation seeded with 0.
        let mut state = 0u64;
        let mut next = || {
            let out = splitmix64(state);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            out
        };
        assert_eq!(next(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(next(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn derivation_is_deterministic_and_separates_streams() {
        assert_eq!(derive(42, 1, 7), derive(42, 1, 7));
        assert_ne!(derive(42, 1, 7), derive(42, 2, 7));
        assert_ne!(derive(42, 1, 7), derive(42, 1, 8));
        assert_ne!(derive(42, 1, 7), derive(43, 1, 7));
    }

    #[test]
    fn picks_stay_in_range_and_cover_it() {
        let mut seen = [false; 7];
        for i in 0..500 {
            let p = pick(3, 9, i, 7);
            assert!(p < 7);
            seen[p] = true;
        }
        assert!(seen.iter().all(|s| *s), "{seen:?}");
        assert_eq!(pick(3, 9, 11, 7), pick(3, 9, 11, 7));
    }
}
