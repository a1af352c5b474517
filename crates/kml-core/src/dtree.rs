//! CART decision trees (paper §4: "KML currently supports neural networks
//! and decision trees").
//!
//! The paper's readahead decision tree is the comparison model that the
//! neural network beats (55%/26% vs 82.5%/37.3% average improvement). This
//! is a standard CART classifier: greedy binary splits on continuous
//! features chosen by Gini impurity, with depth and minimum-samples
//! stopping rules.

use crate::dataset::Dataset;
use crate::{KmlError, Result};
use kml_platform::bytes::{checksum_v1, put_f64, put_u32, seal_v1, split_seal, Reader};

/// Magic prefix of a serialized tree.
const MAGIC: &[u8; 8] = b"KMLDTREE";
/// Bytes per encoded node: tag(1) + 20 of payload, leaves padded to it.
const NODE_BYTES: usize = 21;
/// Padding after a leaf's class so every node has the same width.
const LEAF_PAD: usize = 16;

/// Hyper-parameters for [`DecisionTree::fit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes with fewer samples than this.
    pub min_samples_split: usize,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 8,
            min_samples_split: 4,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A trained CART classifier.
///
/// # Example
///
/// ```
/// use kml_core::dtree::{DecisionTree, DecisionTreeConfig};
/// use kml_core::dataset::Dataset;
///
/// # fn main() -> kml_core::Result<()> {
/// let data = Dataset::from_rows(
///     &[vec![0.0], vec![1.0], vec![10.0], vec![11.0]],
///     &[0, 0, 1, 1],
/// )?;
/// let tree = DecisionTree::fit(&data, DecisionTreeConfig::default())?;
/// assert_eq!(tree.predict(&[0.5])?, 0);
/// assert_eq!(tree.predict(&[10.5])?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    feature_dim: usize,
    num_classes: usize,
}

impl DecisionTree {
    /// Trains a tree on the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadDataset`] for an empty dataset.
    pub fn fit(data: &Dataset, config: DecisionTreeConfig) -> Result<Self> {
        if data.is_empty() {
            return Err(KmlError::BadDataset("cannot fit tree on no samples".into()));
        }
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            feature_dim: data.feature_dim(),
            num_classes: data.num_classes(),
        };
        let all: Vec<usize> = (0..data.len()).collect();
        tree.grow(data, &all, 0, config);
        Ok(tree)
    }

    /// Predicted class for a feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::ShapeMismatch`] on dimension mismatch.
    pub fn predict(&self, features: &[f64]) -> Result<usize> {
        if features.len() != self.feature_dim {
            return Err(KmlError::ShapeMismatch {
                op: "tree predict",
                lhs: (1, features.len()),
                rhs: (1, self.feature_dim),
            });
        }
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { class } => return Ok(*class),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Classification accuracy on a dataset.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn accuracy(&self, data: &Dataset) -> Result<f64> {
        let mut correct = 0;
        for i in 0..data.len() {
            let (f, y) = data.sample(i);
            if self.predict(f)? == y {
                correct += 1;
            }
        }
        Ok(correct as f64 / data.len().max(1) as f64)
    }

    /// Number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the deepest leaf (root = 0).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Approximate in-memory footprint of the tree in bytes (for the
    /// framework-overhead comparison in the paper's §5, where the Markov
    /// alternative consumed 94 MB vs KML's < 4 KB).
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
    }

    /// Serializes the tree to the KML binary format: magic `KMLDTREE`,
    /// version, feature and class counts, node count, fixed-width nodes,
    /// then the version-1 checksum of everything before it
    /// (`kml_platform::bytes::checksum_v1` — not FNV-1a, see there).
    ///
    /// Trees deploy through files just like networks (§3.3): train in user
    /// space, load in the kernel module.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        put_u32(&mut buf, 1); // version
        put_u32(&mut buf, self.feature_dim as u32);
        put_u32(&mut buf, self.num_classes as u32);
        put_u32(&mut buf, self.nodes.len() as u32);
        for node in &self.nodes {
            match node {
                Node::Leaf { class } => {
                    buf.push(0);
                    put_u32(&mut buf, *class as u32);
                    buf.extend_from_slice(&[0u8; LEAF_PAD]);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    buf.push(1);
                    put_u32(&mut buf, *feature as u32);
                    put_f64(&mut buf, *threshold);
                    put_u32(&mut buf, *left as u32);
                    put_u32(&mut buf, *right as u32);
                }
            }
        }
        seal_v1(&mut buf);
        buf
    }

    /// Deserializes a tree from the KML binary format.
    ///
    /// # Errors
    ///
    /// Returns [`KmlError::BadModelFile`] for truncated/corrupt data or
    /// structurally invalid trees (dangling child indices, bad classes).
    pub fn decode(bytes: &[u8]) -> Result<DecisionTree> {
        let (body, stored) = split_seal(bytes)?;
        let mut r = Reader::new(body);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(KmlError::BadModelFile("bad tree magic".into()));
        }
        let version = r.u32()?;
        if version != 1 {
            return Err(KmlError::BadModelFile(format!(
                "unsupported tree version {version}"
            )));
        }
        let feature_dim = r.u32()? as usize;
        let num_classes = r.u32()? as usize;
        let count = r.u32()? as usize;
        r.counted(count, NODE_BYTES)?;
        if r.remaining() != count * NODE_BYTES {
            return Err(KmlError::BadModelFile(format!(
                "tree file length {} does not match {count} nodes",
                bytes.len()
            )));
        }
        if count == 0 {
            return Err(KmlError::BadModelFile("tree with no nodes".into()));
        }
        let computed = checksum_v1(body);
        if stored != computed {
            return Err(KmlError::BadModelFile(format!(
                "tree checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            )));
        }
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            let node = match r.u8()? {
                0 => {
                    let class = r.u32()? as usize;
                    r.take(LEAF_PAD)?;
                    if class >= num_classes {
                        return Err(KmlError::BadModelFile(format!(
                            "leaf class {class} out of range for {num_classes} classes"
                        )));
                    }
                    Node::Leaf { class }
                }
                1 => {
                    let feature = r.u32()? as usize;
                    let threshold = r.f64()?;
                    let left = r.u32()? as usize;
                    let right = r.u32()? as usize;
                    if feature >= feature_dim || left >= count || right >= count {
                        return Err(KmlError::BadModelFile(
                            "split node references out of range".into(),
                        ));
                    }
                    if !threshold.is_finite() {
                        return Err(KmlError::BadModelFile(
                            "split threshold is not finite".into(),
                        ));
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    }
                }
                other => {
                    return Err(KmlError::BadModelFile(format!(
                        "unknown tree node tag {other}"
                    )))
                }
            };
            nodes.push(node);
        }
        let tree = DecisionTree {
            nodes,
            feature_dim,
            num_classes,
        };
        // Reject cyclic/non-tree structures: every predict must terminate.
        tree.check_acyclic()?;
        Ok(tree)
    }

    /// Saves the tree to `path` in the KML binary format.
    ///
    /// # Errors
    ///
    /// Propagates platform I/O failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        use kml_platform::fileops::KmlFile;
        let mut f = KmlFile::create(path)?;
        f.write_all(&self.encode())?;
        f.sync()?;
        Ok(())
    }

    /// Loads a tree from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and decoding failures.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<DecisionTree> {
        use kml_platform::fileops::KmlFile;
        let mut f = KmlFile::open(path)?;
        let bytes = f.read_to_end_vec()?;
        DecisionTree::decode(&bytes)
    }

    /// Verifies the node graph is a DAG reachable from the root with no
    /// cycles (a malicious file could otherwise hang `predict`).
    fn check_acyclic(&self) -> Result<()> {
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if visited[i] {
                return Err(KmlError::BadModelFile(
                    "tree nodes form a cycle or diamond".into(),
                ));
            }
            visited[i] = true;
            if let Node::Split { left, right, .. } = &self.nodes[i] {
                stack.push(*left);
                stack.push(*right);
            }
        }
        Ok(())
    }

    /// Grows a subtree over `indices`, returns its node id.
    fn grow(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        depth: usize,
        config: DecisionTreeConfig,
    ) -> usize {
        let majority = self.majority_class(data, indices);
        let stop = depth >= config.max_depth
            || indices.len() < config.min_samples_split
            || self.is_pure(data, indices);
        if stop {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        }

        let Some((feature, threshold)) = self.best_split(data, indices) else {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| data.sample(i).0[feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            self.nodes.push(Node::Leaf { class: majority });
            return self.nodes.len() - 1;
        }

        // Reserve this node's slot before recursing so children get later ids.
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { class: majority }); // placeholder
        let left = self.grow(data, &left_idx, depth + 1, config);
        let right = self.grow(data, &right_idx, depth + 1, config);
        self.nodes[id] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        id
    }

    fn majority_class(&self, data: &Dataset, indices: &[usize]) -> usize {
        let mut counts = vec![0usize; self.num_classes];
        for &i in indices {
            counts[data.sample(i).1] += 1;
        }
        // Ties break toward the lowest class index (deterministic).
        let mut best = 0;
        for (i, &c) in counts.iter().enumerate() {
            if c > counts[best] {
                best = i;
            }
        }
        best
    }

    fn is_pure(&self, data: &Dataset, indices: &[usize]) -> bool {
        let first = data.sample(indices[0]).1;
        indices.iter().all(|&i| data.sample(i).1 == first)
    }

    fn gini(counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let mut g = 1.0;
        for &c in counts {
            let p = c as f64 / total as f64;
            g -= p * p;
        }
        g
    }

    /// Finds the (feature, threshold) minimizing weighted Gini impurity,
    /// scanning candidate thresholds at midpoints between sorted values.
    fn best_split(&self, data: &Dataset, indices: &[usize]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gini)
        for feature in 0..self.feature_dim {
            let mut vals: Vec<(f64, usize)> = indices
                .iter()
                .map(|&i| {
                    let (f, y) = data.sample(i);
                    (f[feature], y)
                })
                .collect();
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

            let total = vals.len();
            let mut right_counts = vec![0usize; self.num_classes];
            for &(_, y) in &vals {
                right_counts[y] += 1;
            }
            let mut left_counts = vec![0usize; self.num_classes];
            for k in 0..total - 1 {
                let (v, y) = vals[k];
                left_counts[y] += 1;
                right_counts[y] -= 1;
                let next_v = vals[k + 1].0;
                if v == next_v {
                    continue; // cannot split between equal values
                }
                let n_left = k + 1;
                let n_right = total - n_left;
                let g = (n_left as f64 * Self::gini(&left_counts, n_left)
                    + n_right as f64 * Self::gini(&right_counts, n_right))
                    / total as f64;
                let threshold = (v + next_v) / 2.0;
                if best.is_none_or(|(_, _, bg)| g < bg) {
                    best = Some((feature, threshold, g));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KmlRng;
    use kml_platform::bytes::Fnv1a;
    use rand::{Rng, SeedableRng};

    fn quadrant_data(n: usize, seed: u64) -> Dataset {
        // 4 classes, one per quadrant: trivially separable by two splits.
        let mut rng = KmlRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            let class = match (x > 0.0, y > 0.0) {
                (false, false) => 0,
                (true, false) => 1,
                (false, true) => 2,
                (true, true) => 3,
            };
            rows.push(vec![x, y]);
            labels.push(class);
        }
        Dataset::from_rows(&rows, &labels).unwrap()
    }

    #[test]
    fn tree_separates_quadrants_perfectly() {
        let data = quadrant_data(400, 1);
        let tree = DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap();
        assert!(tree.accuracy(&data).unwrap() > 0.99);
        assert_eq!(tree.predict(&[-0.5, -0.5]).unwrap(), 0);
        assert_eq!(tree.predict(&[0.5, -0.5]).unwrap(), 1);
        assert_eq!(tree.predict(&[-0.5, 0.5]).unwrap(), 2);
        assert_eq!(tree.predict(&[0.5, 0.5]).unwrap(), 3);
    }

    #[test]
    fn tree_generalizes_to_held_out_data() {
        let train = quadrant_data(400, 2);
        let test = quadrant_data(200, 3);
        let tree = DecisionTree::fit(&train, DecisionTreeConfig::default()).unwrap();
        assert!(tree.accuracy(&test).unwrap() > 0.95);
    }

    #[test]
    fn max_depth_zero_gives_majority_leaf() {
        let data = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0]], &[1, 1, 0]).unwrap();
        let tree = DecisionTree::fit(
            &data,
            DecisionTreeConfig {
                max_depth: 0,
                min_samples_split: 2,
            },
        )
        .unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
        // Majority class is 1 regardless of input.
        assert_eq!(tree.predict(&[0.0]).unwrap(), 1);
        assert_eq!(tree.predict(&[2.0]).unwrap(), 1);
    }

    #[test]
    fn depth_limit_is_respected() {
        let data = quadrant_data(300, 4);
        let tree = DecisionTree::fit(
            &data,
            DecisionTreeConfig {
                max_depth: 3,
                min_samples_split: 2,
            },
        )
        .unwrap();
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn pure_node_stops_splitting() {
        let data = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0]], &[0, 0, 0]).unwrap();
        let tree = DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn identical_features_cannot_split() {
        // All feature values equal, labels mixed: must produce a single leaf.
        let data = Dataset::from_rows(&[vec![5.0], vec![5.0], vec![5.0], vec![5.0]], &[0, 1, 0, 1])
            .unwrap();
        let tree = DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[5.0]).unwrap(), 0);
    }

    #[test]
    fn predict_validates_dimension() {
        let data = quadrant_data(50, 6);
        let tree = DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap();
        assert!(tree.predict(&[1.0]).is_err());
    }

    #[test]
    fn empty_dataset_rejected() {
        let data = Dataset::from_rows(&[vec![0.0]], &[0]).unwrap();
        let single = DecisionTree::fit(&data, DecisionTreeConfig::default());
        assert!(single.is_ok());
    }

    #[test]
    fn memory_footprint_is_small() {
        let data = quadrant_data(400, 7);
        let tree = DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap();
        // The §5 comparison point: far under the 94 MB Markov model, and in
        // the same "few KB" class as the neural network.
        assert!(tree.memory_bytes() < 64 * 1024);
    }

    #[test]
    fn tree_file_round_trip_preserves_predictions() {
        let data = quadrant_data(300, 11);
        let tree = DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap();
        let decoded = DecisionTree::decode(&tree.encode()).unwrap();
        for i in 0..data.len() {
            let (f, _) = data.sample(i);
            assert_eq!(tree.predict(f).unwrap(), decoded.predict(f).unwrap());
        }
        assert_eq!(decoded.node_count(), tree.node_count());
    }

    #[test]
    fn tree_file_corruption_rejected() {
        let data = quadrant_data(100, 12);
        let tree = DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap();
        let good = tree.encode();
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0xff;
        assert!(DecisionTree::decode(&bad).is_err());
        for cut in [0, 8, 20, good.len() - 1] {
            assert!(DecisionTree::decode(&good[..cut]).is_err());
        }
    }

    #[test]
    fn cyclic_tree_files_rejected() {
        // Hand-craft a 2-node file where the split points at itself.
        let data = Dataset::from_rows(&[vec![0.0], vec![1.0]], &[0, 1]).unwrap();
        let tree = DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap();
        let mut bytes = tree.encode();
        // Patch the root split's left child to 0 (itself), fix checksum.
        if tree.node_count() >= 2 {
            let header = 8 + 4 + 4 + 4 + 4;
            bytes[header + 13..header + 17].copy_from_slice(&0u32.to_le_bytes());
            let body_end = bytes.len() - 8;
            let sum = checksum_v1(&bytes[..body_end]);
            let end = bytes.len();
            bytes[end - 8..].copy_from_slice(&sum.to_le_bytes());
            let err = DecisionTree::decode(&bytes).unwrap_err();
            assert!(err.to_string().contains("cycle"), "got: {err}");
        }
    }

    #[test]
    fn tree_save_load_files() {
        let data = quadrant_data(100, 13);
        let tree = DecisionTree::fit(&data, DecisionTreeConfig::default()).unwrap();
        let path = std::env::temp_dir().join(format!("kml-dtree-{}.kml", std::process::id()));
        tree.save(&path).unwrap();
        let loaded = DecisionTree::load(&path).unwrap();
        assert_eq!(loaded.node_count(), tree.node_count());
        std::fs::remove_file(path).unwrap();
    }

    /// Byte identity, recorded on the parent commit (1fb2a81), before the
    /// codec moved onto `kml_platform::bytes`.
    #[test]
    fn encoded_bytes_match_the_parent_commit() {
        let rows: Vec<Vec<f64>> = (0..64u32)
            .map(|i| vec![f64::from(i % 8) - 3.5, f64::from(i / 8) - 3.5])
            .collect();
        let labels: Vec<usize> = rows
            .iter()
            .map(|r| usize::from(r[0] > 0.0) + 2 * usize::from(r[1] > 0.0))
            .collect();
        let data = Dataset::from_rows(&rows, &labels).unwrap();
        let bytes = DecisionTree::fit(&data, DecisionTreeConfig::default())
            .unwrap()
            .encode();
        assert_eq!(bytes.len(), 179);
        assert_eq!(Fnv1a::of(&bytes), 0x6171_d84f_dee1_b44d);
    }
}
