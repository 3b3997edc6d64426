//! Property graph storage.
//!
//! Nodes carry a label (`Process` / `File` / `NetConn` for audit data) and
//! properties; edges carry a label (`EVENT`) plus properties and connect two
//! nodes. A record is `(shape, row)`: its properties are a row of per-shape
//! columns, one per key of its shape (label and key list), so no record owns
//! an allocation. Out-adjacency lists give index-free traversal along edges
//! (every walk follows edges forward, so no in-adjacency is kept).
//! A per-(label, property) value index accelerates anchor-node lookup by
//! property equality, and its key set doubles as the distinct-value
//! dictionary that `CONTAINS` predicates scan.

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;
use raptor_common::intern::{SharedDict, Sym};
use raptor_storage::{Field, Posting, Value};

/// Node id (arena index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Edge id (arena index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

/// A property value. Strings are interned in the graph's dictionary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PropValue {
    Int(i64),
    Str(Sym),
}

impl From<PropValue> for Value {
    fn from(v: PropValue) -> Value {
        match v {
            PropValue::Int(i) => Value::Int(i),
            PropValue::Str(s) => Value::Str(s),
        }
    }
}

#[derive(Debug)]
pub struct Node {
    pub label: Sym,
    shape: u32,
    row: u32,
}

#[derive(Debug)]
pub struct Edge {
    pub src: NodeId,
    pub dst: NodeId,
    pub label: Sym,
    shape: u32,
    row: u32,
}

/// The property graph.
pub struct Graph {
    dict: SharedDict,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
    /// label → node ids.
    label_nodes: FxHashMap<Sym, Vec<NodeId>>,
    /// (node label, prop key) → prop value → node ids. Built lazily via
    /// [`Graph::create_node_index`].
    value_index: FxHashMap<(Sym, Sym), FxHashMap<PropValue, Posting<NodeId>>>,
    /// Record shapes seen by [`Graph::add_node`] / [`Graph::add_edge`].
    shapes: Vec<Shape>,
}

/// One record shape — a label plus its property keys in order — with what
/// the write path would otherwise resolve by name per record, and its
/// records' properties. A write whose label and keys equal a known shape's
/// skips every such lookup and appends a row.
struct Shape {
    label: String,
    keys: Vec<String>,
    label_sym: Sym,
    /// Per property: key symbol, value-indexed? (A repeated key is read,
    /// and indexed, at its first occurrence.)
    props: Vec<(Sym, bool)>,
    cols: Vec<Vec<PropValue>>,
}

impl Shape {
    /// The column of `key`: its first occurrence.
    fn col(&self, key: Sym) -> Option<usize> {
        self.props.iter().position(|&(k, _)| k == key)
    }

    fn cell(&self, key: Sym, row: u32) -> Option<PropValue> {
        Some(self.cols[self.col(key)?][row as usize])
    }
}

/// A property being written: strings are interned on the way in, unless
/// they arrive as symbols of the graph's dictionary already.
pub use raptor_storage::FieldValue as PropIns;

impl Default for Graph {
    fn default() -> Self {
        Self::with_dict(SharedDict::new())
    }
}

impl Graph {
    /// A graph over its own private dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A graph interning into `dict` — the shared dictionary plane. The
    /// engine hands one dictionary to both backends at `empty()`/`load()`
    /// time so equal strings compare as equal symbols across stores.
    pub fn with_dict(dict: SharedDict) -> Self {
        Graph {
            dict,
            nodes: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
            label_nodes: FxHashMap::default(),
            value_index: FxHashMap::default(),
            shapes: Vec::new(),
        }
    }

    pub fn dict(&self) -> &SharedDict {
        &self.dict
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node of entity `id` — entity ids are node ordinals — if there
    /// is one. Range-checked before narrowing: `1 << 32` is not node 0.
    pub(crate) fn entity_node(&self, id: i64) -> Option<NodeId> {
        usize::try_from(id).ok().filter(|&i| i < self.node_count()).map(|i| NodeId(i as u32))
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.out[id.0 as usize]
    }

    /// All nodes with a label.
    pub fn nodes_with_label(&self, label: Sym) -> &[NodeId] {
        self.label_nodes.get(&label).map_or(&[], Vec::as_slice)
    }

    /// Iterates node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The resolved shape of the record `pinned ++ props`.
    fn shape_of(&mut self, label: &str, pinned: &[Field<'_>], props: &[Field<'_>]) -> usize {
        let keys = || pinned.iter().chain(props).map(|p| p.0);
        let known = self.shapes.iter().position(|s| s.label == label && s.keys.iter().eq(keys()));
        if let Some(si) = known {
            return si;
        }
        // Interns in record order (label, then each key before its value),
        // so symbol numbering does not depend on which shapes came before.
        let label_sym = self.dict.intern(label);
        let mut resolved = Vec::with_capacity(keys().count());
        for (key, v) in pinned.iter().chain(props) {
            let key_sym = self.dict.intern(key);
            if let PropIns::Str(s) = v {
                self.dict.intern(s);
            }
            let indexed = self.value_index.contains_key(&(label_sym, key_sym))
                && resolved.iter().all(|&(k, _)| k != key_sym);
            resolved.push((key_sym, indexed));
        }
        self.shapes.push(Shape {
            label: label.to_string(),
            keys: keys().map(str::to_string).collect(),
            label_sym,
            cols: vec![Vec::new(); resolved.len()],
            props: resolved,
        });
        self.shapes.len() - 1
    }

    /// The shared prefix of [`Graph::add_node`] / [`Graph::add_edge`]:
    /// resolves the record's shape, interns its string values and appends
    /// them as a row of the shape's columns. Returns the shape and the row.
    fn intern_props(
        &mut self,
        label: &str,
        pinned: &[Field<'_>],
        props: &[Field<'_>],
    ) -> (usize, u32) {
        let si = self.shape_of(label, pinned, props);
        let (dict, shape) = (&self.dict, &mut self.shapes[si]);
        let row = shape.cols.first().map_or(0, Vec::len) as u32;
        for (col, &(_, v)) in shape.cols.iter_mut().zip(pinned.iter().chain(props)) {
            col.push(match v {
                PropIns::Int(i) => PropValue::Int(i),
                PropIns::Str(s) => PropValue::Str(dict.intern(s)),
                PropIns::Sym(s) => PropValue::Str(s),
            });
        }
        (si, row)
    }

    pub fn add_node(&mut self, label: &str, props: &[Field<'_>]) -> NodeId {
        self.append_node(label, &[], props)
    }

    /// [`Graph::add_node`] of `pinned ++ props` (`MutableBackend` callers
    /// hold the id apart from the fields).
    pub(crate) fn append_node(
        &mut self,
        label: &str,
        pinned: &[Field<'_>],
        props: &[Field<'_>],
    ) -> NodeId {
        let (si, row) = self.intern_props(label, pinned, props);
        let shape = &self.shapes[si];
        let id = NodeId(self.nodes.len() as u32);
        self.label_nodes.entry(shape.label_sym).or_default().push(id);
        // Maintain any existing value indexes covering this label.
        for (&(key, indexed), col) in shape.props.iter().zip(&shape.cols) {
            if indexed {
                let ix = self.value_index.get_mut(&(shape.label_sym, key)).expect("index exists");
                ix.entry(col[row as usize]).and_modify(|p| p.push(id)).or_insert(Posting::One(id));
            }
        }
        self.nodes.push(Node { label: shape.label_sym, shape: si as u32, row });
        self.out.push(Vec::new());
        id
    }

    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: &str,
        props: &[Field<'_>],
    ) -> Result<EdgeId> {
        self.append_edge(src, dst, label, &[], props)
    }

    /// [`Graph::add_edge`] of `pinned ++ props`, like [`Graph::append_node`].
    pub(crate) fn append_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: &str,
        pinned: &[Field<'_>],
        props: &[Field<'_>],
    ) -> Result<EdgeId> {
        if src.0 as usize >= self.nodes.len() || dst.0 as usize >= self.nodes.len() {
            return Err(Error::storage("edge endpoint does not exist"));
        }
        let (si, row) = self.intern_props(label, pinned, props);
        let id = EdgeId(self.edges.len() as u32);
        let label = self.shapes[si].label_sym;
        self.edges.push(Edge { src, dst, label, shape: si as u32, row });
        self.out[src.0 as usize].push(id);
        Ok(id)
    }

    /// Builds (or rebuilds) the value index for `(label, key)`.
    pub fn create_node_index(&mut self, label: &str, key: &str) {
        let label = self.dict.intern(label);
        let key = self.dict.intern(key);
        let mut ix: FxHashMap<PropValue, Posting<NodeId>> = FxHashMap::default();
        if let Some(ids) = self.label_nodes.get(&label) {
            for &id in ids {
                if let Some(v) = self.node_prop_sym(id, key) {
                    ix.entry(v).and_modify(|p| p.push(id)).or_insert(Posting::One(id));
                }
            }
        }
        self.value_index.insert((label, key), ix);
        // Records of this label appended from now on maintain the index.
        for shape in self.shapes.iter_mut().filter(|s| s.label_sym == label) {
            if let Some(col) = shape.col(key) {
                shape.props[col].1 = true;
            }
        }
    }

    /// The value index of `(label, key)`, if one exists: value → node ids.
    /// Its key set is the distinct-value dictionary `CONTAINS` scans.
    pub(crate) fn value_index(
        &self,
        label: Sym,
        key: Sym,
    ) -> Option<&FxHashMap<PropValue, Posting<NodeId>>> {
        self.value_index.get(&(label, key))
    }

    /// Point lookup through the value index, if one exists. Resolves both
    /// names through the dictionary, like [`Graph::node_prop`].
    pub fn indexed_nodes(&self, label: &str, key: &str, value: PropValue) -> Option<&[NodeId]> {
        let ix = self.value_index(self.dict.get(label)?, self.dict.get(key)?)?;
        Some(ix.get(&value).map_or(&[], Posting::as_slice))
    }

    /// Property of a node by key name. The name resolves through the
    /// dictionary, which takes its read lock: for tests and one-off reads.
    /// A walk binds its keys once per request instead (`cypher::exec::bind`).
    pub fn node_prop(&self, id: NodeId, key: &str) -> Option<PropValue> {
        self.node_prop_sym(id, self.dict.get(key)?)
    }

    /// Property of an edge by key name; like [`Graph::node_prop`], for tests
    /// and one-off reads.
    pub fn edge_prop(&self, id: EdgeId, key: &str) -> Option<PropValue> {
        self.edge_prop_sym(id, self.dict.get(key)?)
    }

    /// Property `key` of a node: the cell of the key's column in the node's
    /// shape (the first, if a key repeats), `None` if the shape lacks it.
    pub(crate) fn node_prop_sym(&self, id: NodeId, key: Sym) -> Option<PropValue> {
        let n = &self.nodes[id.0 as usize];
        self.shapes[n.shape as usize].cell(key, n.row)
    }

    /// Property `key` of an edge, like [`Graph::node_prop_sym`].
    pub(crate) fn edge_prop_sym(&self, id: EdgeId, key: Sym) -> Option<PropValue> {
        let e = &self.edges[id.0 as usize];
        self.shapes[e.shape as usize].cell(key, e.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let p = g.add_node(
            "Process",
            &[("exename", PropIns::Str("/bin/tar")), ("pid", PropIns::Int(100))],
        );
        let f = g.add_node("File", &[("name", PropIns::Str("/etc/passwd"))]);
        let f2 = g.add_node("File", &[("name", PropIns::Str("/tmp/upload.tar"))]);
        g.add_edge(
            p,
            f,
            "EVENT",
            &[("optype", PropIns::Str("read")), ("starttime", PropIns::Int(100))],
        )
        .unwrap();
        g.add_edge(
            p,
            f2,
            "EVENT",
            &[("optype", PropIns::Str("write")), ("starttime", PropIns::Int(200))],
        )
        .unwrap();
        (g, p, f, f2)
    }

    #[test]
    fn adjacency() {
        let (g, p, f, f2) = tiny();
        assert_eq!(g.out_edges(p), &[EdgeId(0), EdgeId(1)]);
        assert!(g.out_edges(f).is_empty());
        assert_eq!(g.edge(EdgeId(0)).dst, f);
        assert_eq!(g.edge(EdgeId(1)).dst, f2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn labels_partition_nodes() {
        let (g, p, ..) = tiny();
        let label = |l| g.dict().get(l).unwrap();
        assert_eq!(g.nodes_with_label(label("Process")), &[p]);
        assert_eq!(g.nodes_with_label(label("File")).len(), 2);
        assert!(g.nodes_with_label(label("EVENT")).is_empty());
    }

    #[test]
    fn value_index_point_and_scan() {
        let (mut g, p, ..) = tiny();
        g.create_node_index("Process", "exename");
        let sym = g.dict().get("/bin/tar").unwrap();
        assert_eq!(g.indexed_nodes("Process", "exename", PropValue::Str(sym)).unwrap(), &[p]);
        // Unknown value: empty slice, not None.
        let other = PropValue::Int(42);
        assert_eq!(g.indexed_nodes("Process", "exename", other).unwrap(), &[] as &[NodeId]);
        // Distinct values enumerable.
        let sym = |s| g.dict().get(s).unwrap();
        assert_eq!(g.value_index(sym("Process"), sym("exename")).unwrap().len(), 1);
        // No index ⇒ None.
        assert!(g.indexed_nodes("File", "name", other).is_none());
    }

    #[test]
    fn bad_edge_rejected() {
        let mut g = Graph::new();
        let n = g.add_node("X", &[]);
        assert!(g.add_edge(n, NodeId(99), "E", &[]).is_err());
    }
}
