//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this workspace ships a
//! minimal serde replacement: a JSON-like [`Value`] data model, the
//! [`Serialize`]/[`Deserialize`] traits expressed directly against it, and
//! derive macros (from the sibling `serde_derive` stub) that mirror serde's
//! externally-tagged encoding conventions:
//!
//! * named-field structs become objects (fields in declaration order);
//! * newtype structs are transparent; longer tuple structs become arrays;
//! * unit enum variants become strings, data-carrying variants become
//!   single-key objects (`{"Source": "DistributedFs"}`);
//! * maps with integer-like keys stringify their keys, as `serde_json` does.
//!
//! Map serialization is sorted by key, so equal values always produce
//! byte-identical JSON — the determinism contract the parallel training
//! runner's tests rely on.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;
use std::sync::Arc;

/// The self-describing data model every serializable type maps onto.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (also covers all unsigned values up to `i64::MAX`).
    Int(i64),
    /// Unsigned integer above `i64::MAX`.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; entries keep insertion order (struct field order).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up an object entry by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable lookup of an object entry by key.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(entries) => entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The entries of an object, or a decode error naming `what`.
    pub fn expect_object(&self, what: &str) -> Result<&[(String, Value)], DeError> {
        match self {
            Value::Object(entries) => Ok(entries),
            other => Err(DeError(format!(
                "expected object for {what}, got {}",
                other.kind()
            ))),
        }
    }

    /// The elements of an array, or a decode error naming `what`.
    pub fn expect_array(&self, what: &str) -> Result<&[Value], DeError> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(DeError(format!(
                "expected array for {what}, got {}",
                other.kind()
            ))),
        }
    }

    /// Short kind name for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if !matches!(self, Value::Object(_)) {
            *self = Value::Object(Vec::new());
        }
        let Value::Object(entries) = self else {
            unreachable!()
        };
        if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
            &mut entries[pos].1
        } else {
            entries.push((key.to_owned(), Value::Null));
            &mut entries.last_mut().expect("just pushed").1
        }
    }
}

impl std::ops::IndexMut<usize> for Value {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        match self {
            Value::Array(items) => items.get_mut(idx).expect("array index out of bounds"),
            other => panic!("cannot index {} with a number", other.kind()),
        }
    }
}

/// Deserialization error: a human-readable message.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can map themselves onto the [`Value`] data model.
pub trait Serialize {
    /// Serializes `self` into a [`Value`] tree.
    fn to_json_value(&self) -> Value;
}

/// Types reconstructible from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Decodes from a [`Value`] tree.
    fn from_json_value(v: &Value) -> Result<Self, DeError>;
}

/// Derive-macro helper: fetches a struct field, `None` when absent. A key
/// present twice is an error, as in `serde_json`.
pub fn __field<'a>(
    entries: &'a [(String, Value)],
    name: &str,
) -> Result<Option<&'a Value>, DeError> {
    let mut hits = entries.iter().filter(|(k, _)| k == name).map(|(_, v)| v);
    let first = hits.next();
    match hits.next() {
        Some(_) => Err(DeError(format!("duplicate field `{name}`"))),
        None => Ok(first),
    }
}

/// Derive-macro helper: a struct's object entries. With `deny_unknown`
/// (`#[serde(deny_unknown_fields)]`), a key naming none of `fields` is an
/// error.
pub fn __object<'a>(
    v: &'a Value,
    what: &str,
    fields: &[&str],
    deny_unknown: bool,
) -> Result<&'a [(String, Value)], DeError> {
    let entries = v.expect_object(what)?;
    match entries
        .iter()
        .find(|(k, _)| deny_unknown && !fields.contains(&k.as_str()))
    {
        Some((k, _)) => Err(DeError(format!("unknown key `{k}` for {what}"))),
        None => Ok(entries),
    }
}

// ── scalar impls ─────────────────────────────────────────────────────

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value { Value::Int(i64::from(*self)) }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::Int(n) => <$t>::try_from(n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    Value::UInt(n) => <$t>::try_from(n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    ref other => Err(DeError(format!(
                        "expected integer for {}, got {}", stringify!($t), other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, u8, u16, u32);

macro_rules! impl_wide_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                match i64::try_from(*self) {
                    Ok(n) => Value::Int(n),
                    Err(_) => Value::UInt(*self as u64),
                }
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::Int(n) => <$t>::try_from(n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    Value::UInt(n) => <$t>::try_from(n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    ref other => Err(DeError(format!(
                        "expected integer for {}, got {}", stringify!($t), other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_wide_int!(i64, isize, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value { Value::Float(f64::from(*self)) }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                match *v {
                    Value::Float(x) => Ok(x as $t),
                    Value::Int(n) => Ok(n as $t),
                    Value::UInt(n) => Ok(n as $t),
                    ref other => Err(DeError(format!(
                        "expected finite number for {}, got {}", stringify!($t), other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError(format!("expected bool, got {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError(format!("expected string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for () {
    fn to_json_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(()),
            other => Err(DeError(format!("expected null, got {}", other.kind()))),
        }
    }
}

// ── container impls ──────────────────────────────────────────────────

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        T::from_json_value(v).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        T::from_json_value(v).map(Arc::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Deserialize> Deserialize for Rc<T> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        T::from_json_value(v).map(Rc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(x) => x.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        v.expect_array("Vec")?
            .iter()
            .map(T::from_json_value)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        let items = v.expect_array("array")?;
        if items.len() != N {
            return Err(DeError(format!(
                "expected array of {N}, got {}",
                items.len()
            )));
        }
        let parsed: Vec<T> = items
            .iter()
            .map(T::from_json_value)
            .collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| DeError("array length mismatch".to_owned()))
    }
}

macro_rules! impl_tuple {
    ($( $len:literal => ($($t:ident . $idx:tt),+) ;)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_json_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_json_value(v: &Value) -> Result<Self, DeError> {
                let items = v.expect_array("tuple")?;
                if items.len() != $len {
                    return Err(DeError(format!(
                        "expected {}-tuple, got {} elements", $len, items.len()
                    )));
                }
                Ok(($($t::from_json_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    1 => (A.0);
    2 => (A.0, B.1);
    3 => (A.0, B.1, C.2);
    4 => (A.0, B.1, C.2, D.3);
    5 => (A.0, B.1, C.2, D.3, E.4);
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        v.expect_array("BTreeSet")?
            .iter()
            .map(T::from_json_value)
            .collect()
    }
}

impl<T: Serialize, S: BuildHasher> Serialize for HashSet<T, S> {
    fn to_json_value(&self) -> Value {
        let mut items: Vec<Value> = self.iter().map(Serialize::to_json_value).collect();
        items.sort_by(compare_values);
        Value::Array(items)
    }
}

impl<T: Deserialize + Eq + Hash, S: BuildHasher + Default> Deserialize for HashSet<T, S> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        v.expect_array("HashSet")?
            .iter()
            .map(T::from_json_value)
            .collect()
    }
}

/// Renders a map key: strings pass through, integers stringify (the
/// serde_json convention for integer-keyed maps).
fn key_to_string(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(n) => n.to_string(),
        Value::UInt(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => panic!("map key must be a string or integer, got {}", other.kind()),
    }
}

/// Inverse of [`key_to_string`]: integer-looking keys decode as integers.
fn key_from_string(s: &str) -> Value {
    if let Ok(n) = s.parse::<i64>() {
        Value::Int(n)
    } else if let Ok(n) = s.parse::<u64>() {
        Value::UInt(n)
    } else {
        Value::Str(s.to_owned())
    }
}

/// Total order over values, used to sort hash-map entries so equal maps
/// always serialize identically.
fn compare_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Array(_) => 4,
            Value::Object(_) => 5,
        }
    }
    fn num(v: &Value) -> f64 {
        match *v {
            Value::Int(n) => n as f64,
            Value::UInt(n) => n as f64,
            Value::Float(x) => x,
            _ => 0.0,
        }
    }
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Array(x), Value::Array(y)) => x
            .iter()
            .zip(y)
            .map(|(p, q)| compare_values(p, q))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or_else(|| x.len().cmp(&y.len())),
        _ if rank(a) == 2 && rank(b) == 2 => num(a).partial_cmp(&num(b)).unwrap_or(Ordering::Equal),
        _ => rank(a).cmp(&rank(b)),
    }
}

fn serialize_map<'a, K, V, I>(entries: I) -> Value
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
{
    let mut out: Vec<(String, Value)> = entries
        .map(|(k, v)| (key_to_string(&k.to_json_value()), v.to_json_value()))
        .collect();
    out.sort_by(|(a, _), (b, _)| a.cmp(b));
    Value::Object(out)
}

fn deserialize_map_entries<K: Deserialize, V: Deserialize>(
    v: &Value,
) -> Result<Vec<(K, V)>, DeError> {
    v.expect_object("map")?
        .iter()
        .map(|(k, val)| {
            let key = K::from_json_value(&key_from_string(k))
                .or_else(|_| K::from_json_value(&Value::Str(k.clone())))?;
            Ok((key, V::from_json_value(val)?))
        })
        .collect()
}

impl<K: Serialize, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn to_json_value(&self) -> Value {
        serialize_map(self.iter())
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        Ok(deserialize_map_entries::<K, V>(v)?.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        serialize_map(self.iter())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        Ok(deserialize_map_entries::<K, V>(v)?.into_iter().collect())
    }
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_index_mut() {
        let mut v = Value::Object(vec![(
            "a".to_owned(),
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
        )]);
        assert_eq!(v["a"][1], Value::Int(2));
        assert_eq!(v["missing"], Value::Null);
        v["a"][0] = Value::Int(7);
        assert_eq!(v["a"][0], Value::Int(7));
        v["b"] = Value::Bool(true);
        assert_eq!(v["b"], Value::Bool(true));
    }

    #[test]
    fn map_keys_stringify_and_sort() {
        let mut m = HashMap::new();
        m.insert(11u32, "b".to_owned());
        m.insert(2u32, "a".to_owned());
        let v = m.to_json_value();
        let Value::Object(entries) = &v else { panic!() };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["11", "2"]); // lexicographic, but stable
        let back: HashMap<u32, String> = HashMap::from_json_value(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn option_roundtrip() {
        assert_eq!(None::<u32>.to_json_value(), Value::Null);
        assert_eq!(Option::<u32>::from_json_value(&Value::Null).unwrap(), None);
        assert_eq!(
            Option::<u32>::from_json_value(&Value::Int(3)).unwrap(),
            Some(3)
        );
    }

    #[test]
    fn wide_integers_roundtrip() {
        let big = u64::MAX - 3;
        let v = big.to_json_value();
        assert_eq!(u64::from_json_value(&v).unwrap(), big);
        assert!(u32::from_json_value(&v).is_err());
    }
}
