//! Pairwise latency matrices between named sites.

use crate::latency::LatencyModel;
use carbonedge_geo::Coordinates;
use serde::{Deserialize, Serialize};

/// A dense, symmetric matrix of one-way latencies (ms) between named sites.
///
/// This is the in-memory equivalent of the WonderNetwork city-pair dataset
/// restricted to the sites of an experiment, e.g. the five Florida or
/// Central-EU edge data centers of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyMatrix {
    names: Vec<String>,
    /// Row-major one-way latencies in milliseconds.
    one_way_ms: Vec<f64>,
}

impl LatencyMatrix {
    /// Builds a latency matrix for named sites using a latency model.
    pub fn from_model(sites: &[(String, Coordinates)], model: &LatencyModel) -> Self {
        let n = sites.len();
        let mut one_way_ms = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                one_way_ms[i * n + j] = model.one_way_ms(sites[i].1, sites[j].1);
            }
        }
        Self {
            names: sites.iter().map(|(n, _)| n.clone()).collect(),
            one_way_ms,
        }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Site names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// One-way latency between site indices `i` and `j`, in ms.
    pub fn one_way(&self, i: usize, j: usize) -> f64 {
        self.one_way_ms[i * self.names.len() + j]
    }

    /// Maximum one-way latency in the matrix (ignoring the diagonal).
    pub fn max_off_diagonal(&self) -> f64 {
        let n = self.len();
        let mut max = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    max = max.max(self.one_way(i, j));
                }
            }
        }
        max
    }

    /// Mean one-way latency over all ordered pairs (ignoring the diagonal).
    pub fn mean_off_diagonal(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    sum += self.one_way(i, j);
                }
            }
        }
        sum / (n * (n - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn florida_sites() -> Vec<(String, Coordinates)> {
        vec![
            ("Jacksonville".into(), Coordinates::new(30.3322, -81.6557)),
            ("Miami".into(), Coordinates::new(25.7617, -80.1918)),
            ("Orlando".into(), Coordinates::new(28.5384, -81.3789)),
            ("Tampa".into(), Coordinates::new(27.9506, -82.4572)),
            ("Tallahassee".into(), Coordinates::new(30.4383, -84.2807)),
        ]
    }

    #[test]
    fn model_matrix_is_symmetric() {
        let m = LatencyMatrix::from_model(&florida_sites(), &LatencyModel::default());
        for i in 0..m.len() {
            for j in 0..m.len() {
                assert!((m.one_way(i, j) - m.one_way(j, i)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn diagonal_is_near_zero() {
        let m = LatencyMatrix::from_model(&florida_sites(), &LatencyModel::default());
        for i in 0..m.len() {
            assert!(m.one_way(i, i) < 1.0);
        }
    }

    #[test]
    fn florida_latencies_in_table1_range() {
        // Table 1a: one-way latencies among Florida cities range ~1.9 – 7.2 ms.
        let m = LatencyMatrix::from_model(&florida_sites(), &LatencyModel::deterministic());
        let max = m.max_off_diagonal();
        let mean = m.mean_off_diagonal();
        assert!(max > 3.0 && max < 12.0, "max {max}");
        assert!(mean > 1.5 && mean < 8.0, "mean {mean}");
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = LatencyMatrix::from_model(&[], &LatencyModel::default());
        assert!(m.is_empty());
        assert_eq!(m.mean_off_diagonal(), 0.0);
        assert_eq!(m.max_off_diagonal(), 0.0);
    }
}
