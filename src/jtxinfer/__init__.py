"""Global type inference for an untyped Java-like mini language."""

from .classtable import ClassTable, build_class_table
from .constraints import flatten, generate_constraints
from .errors import (ArityMismatch, DescriptorCollision, DuplicateClass,
                     JtxError, JtxSyntaxError, ResourceLimit,
                     UnknownIdentifier, UnknownImport, UnknownMember,
                     UnsupportedFeature, Untypable)
from .funtypes import (decode_funtype_name, fun_interface_hierarchy,
                       mangle_funtype_name, render_manifest)
from .generics import (build_fgg, complete_fgg, enforce_java_conformance,
                       format_generics)
from .lexer import tokenize
from .parser import parse
from .pipeline import (descriptor_lines, funiface_manifest, run_source,
                       signature_lines, typed_source)
from .syntax import alpha_equivalent, print_program
from .typeterms import VOID, ClassType, TPH
from .unify import format_solution, unify

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch", "ClassTable", "ClassType", "DescriptorCollision",
    "DuplicateClass", "JtxError", "JtxSyntaxError",
    "ResourceLimit", "TPH", "UnknownIdentifier", "UnknownImport",
    "UnknownMember", "UnsupportedFeature", "Untypable", "VOID",
    "alpha_equivalent", "build_class_table", "build_fgg", "complete_fgg",
    "decode_funtype_name", "descriptor_lines", "enforce_java_conformance",
    "flatten", "format_generics", "format_solution",
    "fun_interface_hierarchy", "funiface_manifest", "generate_constraints",
    "mangle_funtype_name", "parse", "print_program", "render_manifest",
    "run_source", "signature_lines", "tokenize", "typed_source", "unify",
]
