#include "core/schema.h"

#include <unordered_set>
#include <utility>

#include "common/logging.h"

namespace dfi {

size_t DataTypeSize(DataType type) {
  switch (type) {
    case DataType::kInt8:
    case DataType::kUInt8:
      return 1;
    case DataType::kInt16:
    case DataType::kUInt16:
      return 2;
    case DataType::kInt32:
    case DataType::kUInt32:
    case DataType::kFloat:
      return 4;
    case DataType::kInt64:
    case DataType::kUInt64:
    case DataType::kDouble:
      return 8;
    case DataType::kChar:
      DFI_LOG(FATAL) << "kChar has no intrinsic size; use Field::length";
  }
  return 0;
}

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt8:
      return "int8";
    case DataType::kUInt8:
      return "uint8";
    case DataType::kInt16:
      return "int16";
    case DataType::kUInt16:
      return "uint16";
    case DataType::kInt32:
      return "int32";
    case DataType::kUInt32:
      return "uint32";
    case DataType::kInt64:
      return "int64";
    case DataType::kUInt64:
      return "uint64";
    case DataType::kFloat:
      return "float";
    case DataType::kDouble:
      return "double";
    case DataType::kChar:
      return "char";
  }
  return "?";
}

const char* OrderingName(Ordering ordering) {
  switch (ordering) {
    case Ordering::kNone:
      return "none";
    case Ordering::kPerChannel:
      return "per-channel";
    case Ordering::kGlobal:
      return "global";
  }
  return "?";
}

StatusOr<Schema> Schema::Create(std::vector<Field> fields) {
  if (fields.empty()) {
    return Status::InvalidArgument("schema must have at least one field");
  }
  std::unordered_set<std::string> names;
  Schema schema;
  schema.fields_ = std::move(fields);
  schema.offsets_.reserve(schema.fields_.size());
  size_t offset = 0;
  for (const Field& f : schema.fields_) {
    if (!names.insert(f.name).second) {
      return Status::InvalidArgument("duplicate field name '" + f.name + "'");
    }
    const size_t size =
        f.type == DataType::kChar ? f.length : DataTypeSize(f.type);
    if (size == 0) {
      return Status::InvalidArgument("field '" + f.name +
                                     "' has zero length");
    }
    schema.offsets_.push_back(offset);
    offset += size;
  }
  schema.tuple_size_ = offset;
  return schema;
}

Schema::Schema(std::initializer_list<Field> fields) {
  auto result = Create(std::vector<Field>(fields));
  DFI_CHECK(result.ok()) << result.status();
  *this = std::move(result).value();
}

size_t Schema::field_size(size_t i) const {
  const Field& f = fields_[i];
  return f.type == DataType::kChar ? f.length : DataTypeSize(f.type);
}

StatusOr<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return Status::NotFound("field '" + name + "'");
}

StatusOr<Schema> Schema::Extend(const Field& field) const {
  std::vector<Field> fields = fields_;
  fields.push_back(field);
  return Create(std::move(fields));
}

StatusOr<Schema> Schema::WithField(const Field& field) const {
  std::vector<Field> fields = fields_;
  for (Field& f : fields) {
    if (f.name == field.name) {
      f = field;
      return Create(std::move(fields));
    }
  }
  return Status::NotFound("field '" + field.name + "'");
}

StatusOr<Schema> Schema::Project(const std::vector<std::string>& names) const {
  std::vector<Field> fields;
  fields.reserve(names.size());
  for (const std::string& name : names) {
    DFI_ASSIGN_OR_RETURN(size_t i, IndexOf(name));
    fields.push_back(fields_[i]);
  }
  return Create(std::move(fields));
}

Status CheckCompatible(const Schema& produced, const Schema& required) {
  if (produced.num_fields() != required.num_fields()) {
    return Status::InvalidArgument(
        "schema mismatch: produced " + produced.ToString() + " has " +
        std::to_string(produced.num_fields()) + " fields, edge requires " +
        std::to_string(required.num_fields()));
  }
  for (size_t i = 0; i < produced.num_fields(); ++i) {
    const Field& p = produced.field(i);
    const Field& r = required.field(i);
    if (p.name != r.name) {
      return Status::InvalidArgument(
          "schema mismatch at field " + std::to_string(i) +
          ": produced field '" + p.name + "', edge requires '" + r.name +
          "'");
    }
    if (p.type != r.type) {
      return Status::InvalidArgument(
          "schema mismatch at field '" + p.name + "': produced type " +
          DataTypeName(p.type) + ", edge requires " + DataTypeName(r.type));
    }
    if (produced.field_size(i) != required.field_size(i)) {
      return Status::InvalidArgument(
          "schema mismatch at field '" + p.name + "': produced width " +
          std::to_string(produced.field_size(i)) + " B, edge requires " +
          std::to_string(required.field_size(i)) + " B");
    }
  }
  return Status::OK();
}

bool Schema::operator==(const Schema& other) const {
  if (fields_.size() != other.fields_.size()) return false;
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name != other.fields_[i].name ||
        fields_[i].type != other.fields_[i].type ||
        field_size(i) != other.field_size(i)) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i].name;
    out += ":";
    out += DataTypeName(fields_[i].type);
    if (fields_[i].type == DataType::kChar) {
      // Appended piece by piece, as in RegistryService::TraceString (GCC
      // 12's -Wrestrict false positive on a chained operator+ at -O3).
      out += '(';
      out += std::to_string(fields_[i].length);
      out += ')';
    }
  }
  out += "}";
  return out;
}

}  // namespace dfi
