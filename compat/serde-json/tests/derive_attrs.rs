//! The `#[serde(...)]` attributes the stub derive honours, exercised
//! through `serde_json::from_str`: container and field `default`,
//! `default = "path"`, `deny_unknown_fields`, and duplicate-key rejection.

use serde::{Deserialize, Serialize};

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
struct AllDefault {
    a: u32,
    b: String,
}

impl Default for AllDefault {
    fn default() -> Self {
        AllDefault {
            a: 7,
            b: "seven".to_owned(),
        }
    }
}

fn eleven() -> u64 {
    11
}

#[derive(Debug, PartialEq, Deserialize)]
struct FieldDefaults {
    required: bool,
    #[serde(default)]
    zero: f64,
    #[serde(default = "eleven")]
    eleven: u64,
}

#[derive(Debug, PartialEq, Deserialize)]
#[serde(default, deny_unknown_fields)]
struct Strict {
    x: i32,
}

impl Default for Strict {
    fn default() -> Self {
        Strict { x: -1 }
    }
}

#[derive(Debug, PartialEq, Deserialize)]
enum Shape {
    Circle {
        r: f64,
        #[serde(default = "eleven")]
        id: u64,
    },
}

fn err<T: Deserialize + std::fmt::Debug>(json: &str) -> String {
    serde_json::from_str::<T>(json).unwrap_err().to_string()
}

#[test]
fn container_default_fills_each_missing_field_from_default_impl() {
    let v: AllDefault = serde_json::from_str("{}").unwrap();
    assert_eq!(v, AllDefault::default());
    let v: AllDefault = serde_json::from_str(r#"{"a": 1}"#).unwrap();
    assert_eq!((v.a, v.b.as_str()), (1, "seven"));
    // Serialization ignores the attribute: every field is written.
    let text = serde_json::to_string(&AllDefault::default()).unwrap();
    assert_eq!(text, r#"{"a":7,"b":"seven"}"#);
}

#[test]
fn field_default_and_default_path() {
    let v: FieldDefaults = serde_json::from_str(r#"{"required": true}"#).unwrap();
    assert_eq!(
        v,
        FieldDefaults {
            required: true,
            zero: 0.0,
            eleven: 11
        }
    );
    let v: FieldDefaults =
        serde_json::from_str(r#"{"required": false, "zero": 2.5, "eleven": 3}"#).unwrap();
    assert_eq!((v.zero, v.eleven), (2.5, 3));
    // A field without an attribute stays required.
    assert!(err::<FieldDefaults>("{}").contains("missing field `required`"));
    // A default only covers absence, never a wrong kind.
    assert!(err::<FieldDefaults>(r#"{"required": true, "eleven": "x"}"#).contains("integer"));
}

#[test]
fn field_default_works_in_struct_variants() {
    let v: Shape = serde_json::from_str(r#"{"Circle": {"r": 1.5}}"#).unwrap();
    assert_eq!(v, Shape::Circle { r: 1.5, id: 11 });
}

#[test]
fn deny_unknown_fields_rejects_stray_keys() {
    let v: Strict = serde_json::from_str("{}").unwrap();
    assert_eq!(v, Strict { x: -1 });
    let e = err::<Strict>(r#"{"x": 1, "y": 2}"#);
    assert!(e.contains("unknown key `y`"), "{e}");
    // Without the attribute, unknown keys are ignored.
    let v: AllDefault = serde_json::from_str(r#"{"zzz": null}"#).unwrap();
    assert_eq!(v, AllDefault::default());
}

#[test]
fn duplicate_keys_are_rejected() {
    let e = err::<AllDefault>(r#"{"a": 1, "a": 2}"#);
    assert!(e.contains("duplicate field `a`"), "{e}");
    let e = err::<Shape>(r#"{"Circle": {"r": 1, "r": 2}}"#);
    assert!(e.contains("duplicate field `r`"), "{e}");
}
