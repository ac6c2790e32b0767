"""tracelink: transformation chains with end-to-end trace maps.

Enacts chains of model-to-model and model-to-code transformations,
instruments them so every run emits a local trace model, joins those
traces into a global trace map inside a megamodel, and answers
change-impact and origin-tracking queries from input model elements down
to generated code spans.
"""

__version__ = "0.1.0"

# Public name -> submodule. Submodules load on first access (PEP 562), so a
# command imports only the modules it uses.
_EXPORTS = {
    module: names.split()
    for module, names in (
        ("errors", "TracelinkError"),
        ("paths", "ElementPath parse_path"),
        ("model", "Metamodel Model Element Violation parse_metamodel serialize_metamodel parse_model"
                  " serialize_model check_conformance resolve_path"),
        ("megamodel", "Megamodel ResourceEntry Relation ResourceKind ResourceOrigin discover"
                      " save_megamodel load_megamodel"),
        ("m2m", "TransformationM2M parse_m2m print_m2m execute_m2m augment_m2m strip_m2m"),
        ("m2c", "Template parse_template print_template render augment_template strip_template"
                " render_traced"),
        ("trace", "TraceLink LocalTraceModel ElementRef CodeSpan TraceIdentifierTree"
                  " build_identifier_tree save_trace load_trace"),
        ("process", "ProcessModel ExecutionPlan EnactmentResult parse_process schedule enact"),
        ("gtm", "GlobalTraceMap build_gtm change_impact origin_track export_dot"),
    )
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)  # ``tracelink.gtm`` after a bare ``import tracelink``
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # the import statement's machinery, which ``-X importtime`` logs
    return globals()[name] if name == module else getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
