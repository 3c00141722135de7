//! Derive macros for the offline serde stand-in. `syn`/`quote` are not
//! available (no network), so this parses the `proc_macro::TokenStream`
//! directly and emits generated impls as source strings.
//!
//! Supported input shapes — exactly what this workspace derives:
//!
//! * structs with named fields (field attributes `#[serde(default)]` and
//!   `#[serde(default = "path")]` honoured)
//! * tuple structs (arity 1 is treated as `#[serde(transparent)]`)
//! * enums with unit, tuple, and struct variants (externally tagged; unit
//!   variants encode as plain strings)
//!
//! Generics are not supported; the derive panics with a clear message on
//! anything it cannot handle, which fails the build loudly rather than
//! generating wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    /// The expression a missing field takes, when it has a default.
    default: Option<String>,
}

#[derive(Debug)]
enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum Body {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

/// Skip one attribute (`#` + bracket group) if present; report the default
/// expression of a `#[serde(default)]` or `#[serde(default = "path")]`
/// attribute. Any other `#[serde(...)]` argument is unsupported and panics,
/// so new annotations fail the build loudly instead of being silently
/// ignored.
fn skip_attr(tokens: &[TokenTree], i: &mut usize) -> Option<Option<String>> {
    match (tokens.get(*i), tokens.get(*i + 1)) {
        (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
            if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
        {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            let mut default = None;
            if let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) =
                (inner.first(), inner.get(1))
            {
                if id.to_string() == "serde" {
                    for t in args.stream() {
                        match &t {
                            TokenTree::Ident(a) if a.to_string() == "default" => {
                                default = Some("::std::default::Default::default()".into());
                            }
                            // `default = "path"`: the path's call replaces it.
                            TokenTree::Punct(p) if p.as_char() == '=' && default.is_some() => {}
                            TokenTree::Literal(path) if default.is_some() => {
                                default = Some(format!("{}()", path.to_string().trim_matches('"')));
                            }
                            TokenTree::Ident(a) if a.to_string() == "transparent" => {
                                // Implied for newtype structs; accepted as documentation.
                            }
                            TokenTree::Punct(p) if p.as_char() == ',' => {}
                            other => panic!(
                                "serde_derive: unsupported #[serde({other})] — this offline \
                                 stand-in only handles `default` and `transparent`"
                            ),
                        }
                    }
                }
            }
            *i += 2;
            Some(default)
        }
        _ => None,
    }
}

fn skip_attrs(tokens: &[TokenTree], i: &mut usize) -> Option<String> {
    let mut default = None;
    while let Some(d) = skip_attr(tokens, i) {
        default = d.or(default);
    }
    default
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Count comma-separated segments at angle-bracket depth zero. Parenthesized
/// and bracketed subtrees are single tokens, so only `<`/`>` need tracking —
/// plus the `->` of fn-pointer types, whose `>` is not a closing bracket.
fn count_segments(tokens: &[TokenTree]) -> usize {
    let mut depth = 0i32;
    let mut segments = 0usize;
    let mut segment_has_tokens = false;
    let mut prev_dash = false;
    for t in tokens {
        let is_dash = matches!(t, TokenTree::Punct(p) if p.as_char() == '-');
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                depth += 1;
                segment_has_tokens = true;
            }
            TokenTree::Punct(p) if p.as_char() == '>' && !prev_dash => {
                depth -= 1;
                segment_has_tokens = true;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                if segment_has_tokens {
                    segments += 1;
                }
                segment_has_tokens = false;
            }
            _ => segment_has_tokens = true,
        }
        prev_dash = is_dash;
    }
    if segment_has_tokens {
        segments += 1;
    }
    segments
}

/// Parse `attrs? vis? name : Type` fields separated by top-level commas.
fn parse_named_fields(group: &proc_macro::Group) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < tokens.len() {
        let default = skip_attrs(&tokens, &mut i);
        skip_visibility(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive: expected field name, got {other:?}"),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => panic!("serde_derive: expected ':' after field `{name}`, got {other:?}"),
        }
        // Skip the type: tokens until a comma at angle depth zero (the `>`
        // of a fn-pointer `->` is not a closing bracket).
        let mut depth = 0i32;
        let mut prev_dash = false;
        while let Some(t) = tokens.get(i) {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' && !prev_dash => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
            prev_dash = matches!(t, TokenTree::Punct(p) if p.as_char() == '-');
            i += 1;
        }
        i += 1; // past the comma (or the end)
        fields.push(Field { name, default });
    }
    fields
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < tokens.len() {
        skip_attrs(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde_derive: expected variant name, got {other:?}"),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_segments(&g.stream().into_iter().collect::<Vec<_>>());
                i += 1;
                VariantShape::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g);
                i += 1;
                VariantShape::Named(fields)
            }
            _ => VariantShape::Unit,
        };
        // Discriminant values (`= expr`) are not supported with data-carrying
        // serde enums in this workspace; skip a trailing comma if present.
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            other => panic!("serde_derive: expected ',' after variant `{name}`, got {other:?}"),
        }
        variants.push(Variant { name, shape });
    }
    variants
}

fn parse_input(input: TokenStream) -> (String, Body) {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected type name, got {other:?}"),
    };
    i += 1;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive: generic types are not supported (deriving `{name}`)");
    }
    let body = match (kind.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::NamedStruct(parse_named_fields(g))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::TupleStruct(count_segments(&g.stream().into_iter().collect::<Vec<_>>()))
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Enum(parse_variants(g))
        }
        (k, other) => panic!("serde_derive: unsupported input shape: {k} {other:?}"),
    };
    (name, body)
}

fn named_fields_to_value(fields: &[Field], access_prefix: &str) -> String {
    let entries: Vec<String> = fields
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from(\"{n}\"), ::serde::Serialize::to_value({p}{n})),",
                n = f.name,
                p = access_prefix
            )
        })
        .collect();
    format!("::serde::Value::Object(::std::vec![{}])", entries.join(""))
}

fn named_fields_from_value(fields: &[Field], ty_ctx: &str, obj_var: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            let missing = if let Some(default) = &f.default {
                default.clone()
            } else {
                // Match real serde: a missing `Option<T>` field is `None`
                // (Option deserializes from Null); any other missing field
                // is an error naming the field.
                format!(
                    "match ::serde::Deserialize::from_value(&::serde::Value::Null) {{\
                     ::std::result::Result::Ok(__d) => __d,\
                     ::std::result::Result::Err(_) => return ::std::result::Result::Err(\
                     ::serde::Error::custom(\"{ty_ctx}: missing field `{n}`\")),\
                     }}",
                    n = f.name
                )
            };
            format!(
                "{n}: match ::serde::get_field({obj_var}, \"{n}\") {{\
                 ::std::option::Option::Some(__fv) => ::serde::Deserialize::from_value(__fv)?,\
                 ::std::option::Option::None => {missing},\
                 }},",
                n = f.name
            )
        })
        .collect();
    inits.join("")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, body) = parse_input(input);
    let to_value_body = match &body {
        Body::NamedStruct(fields) => named_fields_to_value(fields, "&self."),
        Body::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i}),"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(""))
        }
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => format!(
                            "{name}::{vn} => ::serde::Value::String(\
                             ::std::string::String::from(\"{vn}\")),"
                        ),
                        VariantShape::Tuple(arity) => {
                            let binds: Vec<String> =
                                (0..*arity).map(|i| format!("__b{i}")).collect();
                            let payload = if *arity == 1 {
                                "::serde::Serialize::to_value(__b0)".to_string()
                            } else {
                                let items: Vec<String> = binds
                                    .iter()
                                    .map(|b| format!("::serde::Serialize::to_value({b}),"))
                                    .collect();
                                format!("::serde::Value::Array(::std::vec![{}])", items.join(""))
                            };
                            format!(
                                "{name}::{vn}({binds}) => ::serde::Value::Object(::std::vec![\
                                 (::std::string::String::from(\"{vn}\"), {payload})]),",
                                binds = binds.join(", ")
                            )
                        }
                        VariantShape::Named(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| f.name.clone()).collect();
                            let payload = named_fields_to_value(fields, "");
                            format!(
                                "{name}::{vn} {{ {binds} }} => ::serde::Value::Object(::std::vec![\
                                 (::std::string::String::from(\"{vn}\"), {payload})]),",
                                binds = binds.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(""))
        }
    };
    let out = format!(
        "impl ::serde::Serialize for {name} {{\
         fn to_value(&self) -> ::serde::Value {{ {to_value_body} }}\
         }}"
    );
    out.parse()
        .expect("serde_derive: generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, body) = parse_input(input);
    let from_value_body = match &body {
        Body::NamedStruct(fields) => {
            let inits = named_fields_from_value(fields, &name, "__obj");
            format!(
                "let __obj = __v.as_object().ok_or_else(|| \
                 ::serde::Error::custom(\"{name}: expected object\"))?;\
                 ::std::result::Result::Ok({name} {{ {inits} }})"
            )
        }
        Body::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Body::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__a[{i}])?,"))
                .collect();
            format!(
                "let __a = __v.as_array().ok_or_else(|| \
                 ::serde::Error::custom(\"{name}: expected array\"))?;\
                 if __a.len() != {n} {{ return ::std::result::Result::Err(\
                 ::serde::Error::custom(\"{name}: arity mismatch\")); }}\
                 ::std::result::Result::Ok({name}({}))",
                items.join("")
            )
        }
        Body::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, VariantShape::Unit))
                .map(|v| {
                    format!(
                        "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),",
                        vn = v.name
                    )
                })
                .collect();
            let tagged_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => None,
                        VariantShape::Tuple(1) => Some(format!(
                            "\"{vn}\" => ::std::result::Result::Ok(\
                             {name}::{vn}(::serde::Deserialize::from_value(__inner)?)),"
                        )),
                        VariantShape::Tuple(arity) => {
                            let items: Vec<String> = (0..*arity)
                                .map(|i| format!("::serde::Deserialize::from_value(&__a[{i}])?,"))
                                .collect();
                            Some(format!(
                                "\"{vn}\" => {{\
                                 let __a = __inner.as_array().ok_or_else(|| \
                                 ::serde::Error::custom(\"{name}::{vn}: expected array\"))?;\
                                 if __a.len() != {arity} {{ return ::std::result::Result::Err(\
                                 ::serde::Error::custom(\"{name}::{vn}: arity mismatch\")); }}\
                                 ::std::result::Result::Ok({name}::{vn}({}))\
                                 }},",
                                items.join("")
                            ))
                        }
                        VariantShape::Named(fields) => {
                            let ctx = format!("{name}::{vn}");
                            let inits = named_fields_from_value(fields, &ctx, "__o");
                            Some(format!(
                                "\"{vn}\" => {{\
                                 let __o = __inner.as_object().ok_or_else(|| \
                                 ::serde::Error::custom(\"{ctx}: expected object\"))?;\
                                 ::std::result::Result::Ok({name}::{vn} {{ {inits} }})\
                                 }},"
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "if let ::std::option::Option::Some(__s) = __v.as_str() {{\
                 return match __s {{ {unit} _ => ::std::result::Result::Err(\
                 ::serde::Error::custom(\"{name}: unknown unit variant\")) }};\
                 }}\
                 let (__k, __inner) = __v.as_singleton_object().ok_or_else(|| \
                 ::serde::Error::custom(\"{name}: expected enum value\"))?;\
                 match __k {{ {tagged} _ => ::std::result::Result::Err(\
                 ::serde::Error::custom(\"{name}: unknown variant\")) }}",
                unit = unit_arms.join(""),
                tagged = tagged_arms.join("")
            )
        }
    };
    let out = format!(
        "impl ::serde::Deserialize for {name} {{\
         fn from_value(__v: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::Error> {{ {from_value_body} }}\
         }}"
    );
    out.parse()
        .expect("serde_derive: generated Deserialize impl must parse")
}
